// Mapping-strategy selection: one switch over the library's mappers, so
// the pipeline, the experiment suite and the CLI pick an algorithm by name
// instead of hard-coding HierarchicalMapper.
//
// kAuto is the default and encodes the scale crossover this layer exists
// for: the paper's exact Edmonds matching (O(N^3) per merge level) is the
// reference up to small machines, but at manycore thread counts recursive
// multisection delivers near-identical mapping_cost orders of magnitude
// faster (arXiv:2504.01726), so kAuto switches to it at 128 threads — and
// whenever the topology's arities are not powers of two,
// which the matching-based mapper cannot tile at all.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "detect/comm_matrix.hpp"
#include "mapping/mapping.hpp"
#include "sim/topology.hpp"

namespace tlbmap {

enum class MappingStrategy {
  kAuto,          ///< Edmonds below 128 threads, else multisection
  kEdmonds,       ///< hierarchical exact-matching mapper (paper Sec. V-A)
  kMultisection,  ///< recursive multisection + local search
};

/// "auto" / "edmonds" / "multisection"; nullopt on anything else.
std::optional<MappingStrategy> parse_mapping_strategy(std::string_view text);
const char* to_string(MappingStrategy strategy);

struct MappingConfig {
  MappingStrategy strategy = MappingStrategy::kAuto;
};

/// The concrete algorithm `config` selects for this input — resolves kAuto
/// against the thread count and the topology's arities.
MappingStrategy resolve_strategy(const MappingConfig& config,
                                 const CommMatrix& comm,
                                 const Topology& topology);

/// Maps comm.size() threads onto distinct cores of `topology` with the
/// strategy `config` selects. Requires comm.size() <= topology.num_cores().
Mapping map_threads(const CommMatrix& comm, const Topology& topology,
                    const MappingConfig& config = {});

}  // namespace tlbmap
