#include "mapping/bipartition.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tlbmap {

namespace {

/// Communication between a thread and a group (virtual threads weigh 0).
std::int64_t affinity(const CommMatrix& comm, const WeightClamp& clamp,
                      ThreadId t, const std::vector<ThreadId>& group) {
  if (t < 0) return 0;
  std::int64_t sum = 0;
  for (const ThreadId o : group) {
    if (o >= 0 && o != t) sum += clamp(comm.at(t, o));
  }
  return sum;
}

}  // namespace

std::pair<std::vector<ThreadId>, std::vector<ThreadId>> bisect_min_cut(
    const CommMatrix& comm, const std::vector<ThreadId>& members) {
  const std::size_t n = members.size();
  if (n % 2 != 0) {
    throw std::invalid_argument("bisect_min_cut: odd group size");
  }
  const std::size_t half = n / 2;
  const WeightClamp clamp(comm.size(), /*max_hops=*/1);

  // Greedy seed: grow side A from the heaviest pair's first endpoint,
  // repeatedly pulling the member with the highest affinity to A.
  std::vector<ThreadId> pool = members;
  std::vector<ThreadId> a;
  // Heaviest internal edge endpoint first (falls back to pool front).
  std::size_t seed = 0;
  std::int64_t best_w = -1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pool[i] < 0 || pool[j] < 0) continue;
      const std::int64_t w = clamp(comm.at(pool[i], pool[j]));
      if (w > best_w) {
        best_w = w;
        seed = i;
      }
    }
  }
  a.push_back(pool[seed]);
  pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(seed));
  while (a.size() < half) {
    std::size_t best = 0;
    std::int64_t best_aff = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::int64_t aff = affinity(comm, clamp, pool[i], a);
      if (aff > best_aff) {
        best_aff = aff;
        best = i;
      }
    }
    a.push_back(pool[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  }
  std::vector<ThreadId> b = std::move(pool);

  // Kernighan-Lin style refinement: keep taking the best improving swap.
  auto cut_gain = [&](std::size_t i, std::size_t j) {
    // Gain of swapping a[i] <-> b[j]: moves each member's external affinity
    // inside and vice versa. Self-edge corrections cancel for distinct
    // members of opposite sides except the direct (a[i], b[j]) edge, which
    // stays external; count it twice to be exact.
    const ThreadId x = a[i], y = b[j];
    const std::int64_t direct = (x >= 0 && y >= 0) ? clamp(comm.at(x, y)) : 0;
    const std::int64_t gain =
        (affinity(comm, clamp, x, b) - affinity(comm, clamp, x, a)) +
        (affinity(comm, clamp, y, a) - affinity(comm, clamp, y, b)) -
        2 * direct;
    return gain;
  };
  bool improved = true;
  int rounds = 0;
  while (improved && rounds < 32) {
    improved = false;
    ++rounds;
    std::size_t bi = 0, bj = 0;
    std::int64_t best_gain = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) {
        const std::int64_t g = cut_gain(i, j);
        if (g > best_gain) {
          best_gain = g;
          bi = i;
          bj = j;
        }
      }
    }
    if (best_gain > 0) {
      std::swap(a[bi], b[bj]);
      improved = true;
    }
  }
  return {std::move(a), std::move(b)};
}

BipartitionMapper::BipartitionMapper(const Topology& topology)
    : topology_(&topology) {
  for (const int arity : topology.level_arities()) {
    if (arity <= 0 || (arity & (arity - 1)) != 0) {
      throw std::invalid_argument(
          "BipartitionMapper: level arities must be powers of two");
    }
  }
}

Mapping BipartitionMapper::map(const CommMatrix& comm) const {
  const int num_threads = comm.size();
  const int num_cores = topology_->num_cores();
  if (num_threads > num_cores) {
    throw std::invalid_argument("BipartitionMapper: more threads than cores");
  }

  // Pad with virtual threads so groups always tile the machine, then split
  // top-down: halve until groups have cores_per_l2 members. The recursion
  // order means the first split separates sockets, later splits separate
  // L2 groups — exactly the machine tree, since all arities are powers of
  // two.
  std::vector<std::vector<ThreadId>> groups;
  {
    std::vector<ThreadId> all;
    for (ThreadId t = 0; t < num_threads; ++t) all.push_back(t);
    for (int p = num_threads; p < num_cores; ++p) all.push_back(kNoThread);
    groups.push_back(std::move(all));
  }
  while (static_cast<int>(groups.front().size()) > topology_->cores_per_l2()) {
    std::vector<std::vector<ThreadId>> next;
    next.reserve(groups.size() * 2);
    for (const auto& group : groups) {
      auto [a, b] = bisect_min_cut(comm, group);
      next.push_back(std::move(a));
      next.push_back(std::move(b));
    }
    groups = std::move(next);
  }

  // groups[g] now holds the members of L2 group g, in machine order (the
  // split sequence preserved locality: children of one split stay adjacent).
  Mapping mapping(static_cast<std::size_t>(num_threads), kNoCore);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      const ThreadId t = groups[g][i];
      if (t == kNoThread) continue;
      mapping[static_cast<std::size_t>(t)] =
          static_cast<CoreId>(g) * topology_->cores_per_l2() +
          static_cast<CoreId>(i);
    }
  }
  return mapping;
}

}  // namespace tlbmap
