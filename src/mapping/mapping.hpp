// Thread-to-core mappings: the type, validity checks, baseline generators
// (the paper's "OS" scheduler stand-in among them) and a communication-cost
// metric used to compare mapping quality independently of full simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/comm_matrix.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// mapping[t] = core that runs thread t.
using Mapping = std::vector<CoreId>;

/// True iff every thread is placed on a distinct, existing core.
bool is_valid_mapping(const Mapping& mapping, int num_cores);

/// Thread t on core t.
Mapping identity_mapping(int num_threads);

/// Uniformly random placement of threads onto distinct cores. This is the
/// evaluation's "OS" baseline: an unaware scheduler that lands threads on
/// arbitrary cores, differently on every run (hence the paper's high
/// OS-variance observations).
Mapping random_mapping(int num_threads, int num_cores, std::uint64_t seed);

/// Threads dealt across sockets round-robin (a load-balancing-only
/// scheduler: spreads without regard to communication).
Mapping round_robin_mapping(const Topology& topology, int num_threads);

/// Total weighted communication distance: sum over thread pairs of
/// comm(a, b) * hop_distance(core(a), core(b)). Lower is better; used by
/// tests and the matching-quality ablation.
double mapping_cost(const CommMatrix& comm, const Mapping& mapping,
                    const Topology& topology);

/// Order-preserving conversion of CommMatrix counts into the signed weights
/// the mappers sum. A count above the ceiling (a saturated kCounterMax cell
/// among them) becomes the ceiling, so it still ranks first instead of
/// wrapping negative; counts at or below it pass through unchanged. Every
/// sum a mapper forms over a matrix of n threads — a row or affinity sum, a
/// group-to-group sum, Edmonds' total — adds at most n^2 weights, and the
/// socket placement cost multiplies such a sum by at most `max_hops`; the
/// ceiling INT64_MAX / (2 * n^2 * max_hops) keeps all of them, and the
/// differences and doublings the mappers take of them, inside int64.
class WeightClamp {
 public:
  WeightClamp(int num_threads, int max_hops);

  std::int64_t ceiling() const { return ceiling_; }

  std::int64_t operator()(std::uint64_t count) const {
    return count > static_cast<std::uint64_t>(ceiling_)
               ? ceiling_
               : static_cast<std::int64_t>(count);
  }

 private:
  std::int64_t ceiling_;
};

/// Human-readable "t0->c3 t1->c5 ..." string for reports.
std::string to_string(const Mapping& mapping);

}  // namespace tlbmap
