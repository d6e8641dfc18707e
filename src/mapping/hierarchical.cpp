#include "mapping/hierarchical.hpp"

#include <stdexcept>

#include "mapping/greedy.hpp"
#include "mapping/matching.hpp"

namespace tlbmap {

namespace {

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

/// The paper's H heuristic, generalised: weight between two groups is the
/// total communication between their members.
WeightMatrix group_weights(const CommMatrix& comm,
                           const std::vector<std::vector<ThreadId>>& groups) {
  const WeightClamp clamp(comm.size(), /*max_hops=*/1);
  const std::size_t g = groups.size();
  WeightMatrix w(g, std::vector<std::int64_t>(g, 0));
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = i + 1; j < g; ++j) {
      std::int64_t sum = 0;
      for (const ThreadId a : groups[i]) {
        for (const ThreadId b : groups[j]) {
          if (a >= 0 && b >= 0) {  // virtual padding threads are < 0
            sum += clamp(comm.at(a, b));
          }
        }
      }
      w[i][j] = w[j][i] = sum;
    }
  }
  return w;
}

}  // namespace

HierarchicalMapper::HierarchicalMapper(const Topology& topology,
                                       HierarchicalMapperConfig config)
    : topology_(&topology), config_(config) {
  for (const int arity : topology.level_arities()) {
    if (!is_power_of_two(arity)) {
      throw std::invalid_argument(
          "HierarchicalMapper: level arities must be powers of two");
    }
  }
}

MatchingResult HierarchicalMapper::run_matching(const WeightMatrix& w) const {
  // Power-of-two arities and padding to the core count make every group
  // count even while it exceeds the socket count, so the matching is
  // always perfect.
  if (config_.matcher == HierarchicalMapperConfig::Matcher::kGreedy) {
    return greedy_perfect_matching(w);
  }
  return max_weight_perfect_matching(w);
}

std::vector<std::vector<std::vector<ThreadId>>>
HierarchicalMapper::merge_levels(const CommMatrix& comm) const {
  const int num_threads = comm.size();
  const int num_cores = topology_->num_cores();
  if (num_threads > num_cores) {
    throw std::invalid_argument("HierarchicalMapper: more threads than cores");
  }

  // Singleton groups; pad with virtual threads (id -1) up to the core count
  // so the group structure always tiles the whole machine.
  std::vector<std::vector<ThreadId>> groups;
  groups.reserve(static_cast<std::size_t>(num_cores));
  for (ThreadId t = 0; t < num_threads; ++t) groups.push_back({t});
  for (int p = num_threads; p < num_cores; ++p) groups.push_back({kNoThread});

  std::vector<std::vector<std::vector<ThreadId>>> levels;
  // Merge until one group per socket.
  while (static_cast<int>(groups.size()) > topology_->num_sockets()) {
    const WeightMatrix w = group_weights(comm, groups);
    const MatchingResult match = run_matching(w);
    std::vector<std::vector<ThreadId>> merged;
    merged.reserve(groups.size() / 2);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const std::size_t j = static_cast<std::size_t>(match.mate[i]);
      if (j < i) continue;  // merged when its partner was visited
      std::vector<ThreadId> both = groups[i];
      both.insert(both.end(), groups[j].begin(), groups[j].end());
      merged.push_back(std::move(both));
    }
    groups = std::move(merged);
    levels.push_back(groups);
  }
  if (levels.empty()) levels.push_back(groups);
  return levels;
}

Mapping HierarchicalMapper::map(const CommMatrix& comm) const {
  const auto levels = merge_levels(comm);
  const auto& socket_groups = levels.back();

  Mapping mapping(static_cast<std::size_t>(comm.size()), kNoCore);
  // Nested merges preserved contiguity: within a socket group, the first
  // cores_per_l2 members formed one L2 group, and so on. Reading members
  // off in order therefore lands each merge level on its hierarchy level.
  for (std::size_t s = 0; s < socket_groups.size(); ++s) {
    const auto& members = socket_groups[s];
    for (std::size_t i = 0; i < members.size(); ++i) {
      const ThreadId t = members[i];
      if (t == kNoThread) continue;  // virtual padding
      mapping[static_cast<std::size_t>(t)] =
          static_cast<CoreId>(s) * topology_->cores_per_socket() +
          static_cast<CoreId>(i);
    }
  }
  return mapping;
}

}  // namespace tlbmap
