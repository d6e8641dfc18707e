#include "mapping/strategy.hpp"

#include "mapping/hierarchical.hpp"
#include "mapping/multisection.hpp"

namespace tlbmap {

namespace {

/// Thread count at (and above) which kAuto abandons Edmonds matching.
constexpr int kAutoMultisectionThreads = 128;

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

bool edmonds_can_tile(const Topology& topology) {
  for (const int arity : topology.level_arities()) {
    if (!is_power_of_two(arity)) return false;
  }
  return true;
}

}  // namespace

std::optional<MappingStrategy> parse_mapping_strategy(std::string_view text) {
  if (text == "auto") return MappingStrategy::kAuto;
  if (text == "edmonds") return MappingStrategy::kEdmonds;
  if (text == "multisection") return MappingStrategy::kMultisection;
  return std::nullopt;
}

const char* to_string(MappingStrategy strategy) {
  switch (strategy) {
    case MappingStrategy::kAuto:
      return "auto";
    case MappingStrategy::kEdmonds:
      return "edmonds";
    case MappingStrategy::kMultisection:
      return "multisection";
  }
  return "?";
}

MappingStrategy resolve_strategy(const MappingConfig& config,
                                 const CommMatrix& comm,
                                 const Topology& topology) {
  if (config.strategy != MappingStrategy::kAuto) return config.strategy;
  if (comm.size() >= kAutoMultisectionThreads) {
    return MappingStrategy::kMultisection;
  }
  if (!edmonds_can_tile(topology)) return MappingStrategy::kMultisection;
  return MappingStrategy::kEdmonds;
}

Mapping map_threads(const CommMatrix& comm, const Topology& topology,
                    const MappingConfig& config) {
  switch (resolve_strategy(config, comm, topology)) {
    case MappingStrategy::kEdmonds:
      return HierarchicalMapper(topology).map(comm);
    case MappingStrategy::kMultisection:
      return MultisectionMapper(topology).map(comm);
    case MappingStrategy::kAuto:
      break;  // unreachable: resolve_strategy never returns kAuto
  }
  return MultisectionMapper(topology).map(comm);
}

}  // namespace tlbmap
