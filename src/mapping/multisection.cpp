#include "mapping/multisection.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tlbmap {

namespace {

/// Max full local-search sweeps per partition call; the search stops early
/// at the first sweep with no improvement.
constexpr int kRefineRounds = 8;

/// Host cost of visiting one neighbour while listing swap candidates, in
/// units of one pair evaluated by the plain scan (measured on banded and
/// dense matrices at 256-4096 threads).
constexpr std::int64_t kListedCost = 4;

/// Host cost of one CommMatrix::at lookup while reading a block's cells, in
/// units of one neighbour-list entry filtered.
constexpr std::size_t kLookupCost = 4;

/// Nonzero communication partners of items 0..n-1 in compressed-row form:
/// row i lists i's partners in ascending id with their clamped weights,
/// those below i first and, from above(i) on, those above it.
struct Neighbours {
  std::vector<std::size_t> begin;  ///< row i is [begin[i], begin[i + 1])
  std::vector<std::size_t> upper;  ///< above(i) for each row
  std::vector<int> id;
  std::vector<std::int64_t> weight;

  std::size_t row_begin(int i) const {
    return begin[static_cast<std::size_t>(i)];
  }
  std::size_t row_end(int i) const {
    return begin[static_cast<std::size_t>(i) + 1];
  }
  std::size_t above(int i) const { return upper[static_cast<std::size_t>(i)]; }
  std::int64_t degree(int i) const {
    return static_cast<std::int64_t>(row_end(i) - row_begin(i));
  }
};

/// Neighbour lists of n items from their cells: visit(f) calls f(a, b, w)
/// for every cell a < b with clamped weight w, in ascending (a, b) order.
/// It runs twice, once to count and once to fill. Row x receives its
/// partners below x (with their cells) before those above it (with its
/// own), each ascending: rows come out sorted.
template <typename Visit>
Neighbours build_neighbours(std::size_t n, const Visit& visit) {
  Neighbours g;
  g.begin.assign(n + 1, 0);
  g.upper.assign(n, 0);  // partners above each item, until the fill below
  std::size_t row = 0;
  std::size_t above = 0;  // row's cells so far, kept out of memory
  visit([&](std::size_t a, std::size_t b, std::int64_t) {
    if (a != row) {
      g.upper[row] = above;
      row = a;
      above = 0;
    }
    ++above;
    ++g.begin[b + 1];
  });
  if (n != 0) g.upper[row] = above;
  for (std::size_t a = 0; a < n; ++a) g.begin[a + 1] += g.upper[a];
  std::partial_sum(g.begin.begin(), g.begin.end(), g.begin.begin());
  for (std::size_t a = 0; a < n; ++a) g.upper[a] = g.begin[a + 1] - g.upper[a];
  g.id.resize(g.begin.back());
  g.weight.resize(g.begin.back());
  std::vector<std::size_t> next(g.begin.begin(), g.begin.end() - 1);
  visit([&](std::size_t a, std::size_t b, std::int64_t w) {
    g.id[next[a]] = static_cast<int>(b);
    g.weight[next[a]++] = w;
    g.id[next[b]] = static_cast<int>(a);
    g.weight[next[b]++] = w;
  });
  return g;
}

/// Every thread's partners, from the matrix's sorted view in
/// O(nonzeros + (n/8)^2).
Neighbours all_neighbours(const CommMatrix& comm, const WeightClamp& clamp) {
  return build_neighbours(
      static_cast<std::size_t>(comm.size()), [&](const auto& f) {
        comm.for_each_nonzero([&](ThreadId a, ThreadId b, std::uint64_t c) {
          f(static_cast<std::size_t>(a), static_cast<std::size_t>(b),
            clamp(c));
        });
      });
}

/// The partners among `items` (item i is thread items[i], ids ascending),
/// from every thread's lists `all` in at most O(the items' degrees),
/// whatever the matrix size. `local` maps every thread to -1 on entry and
/// on return. In between it maps the items to their index, which follows
/// thread ids, and item a's partners above it are filtered through it; or,
/// when they far outnumber the items left above a (a dense row against a
/// small block), each of those items is looked up in the matrix instead.
Neighbours neighbours_within(const CommMatrix& comm, const WeightClamp& clamp,
                             const Neighbours& all,
                             const std::vector<ThreadId>& items,
                             std::vector<int>& local) {
  const std::size_t n = items.size();
  for (std::size_t i = 0; i < n; ++i) {
    local[static_cast<std::size_t>(items[i])] = static_cast<int>(i);
  }
  Neighbours g = build_neighbours(n, [&](const auto& f) {
    for (std::size_t a = 0; a < n; ++a) {
      const std::size_t first = all.above(items[a]);
      const std::size_t last = all.row_end(items[a]);
      if (kLookupCost * (n - a - 1) < last - first) {
        for (std::size_t b = a + 1; b < n; ++b) {
          const std::uint64_t count = comm.at(items[a], items[b]);
          if (count != 0) f(a, b, clamp(count));
        }
      } else {
        for (std::size_t e = first; e < last; ++e) {
          const int b = local[static_cast<std::size_t>(all.id[e])];
          if (b >= 0) f(a, static_cast<std::size_t>(b), all.weight[e]);
        }
      }
    }
  });
  for (const ThreadId t : items) local[static_cast<std::size_t>(t)] = -1;
  return g;
}

/// One k-way partition of a subset of threads into parts of equal capacity.
/// The greedy seed and the local search update the affinity table through
/// neighbour lists and find swap partners through part member lists, so
/// their work follows the nonzeros rather than n^2; every decision is the
/// one a dense scan in ascending order would make.
class Partitioner {
 public:
  Partitioner(const Neighbours& g, int parts, int capacity)
      : g_(g),
        n_(static_cast<int>(g_.begin.size()) - 1),
        k_(parts),
        capacity_(capacity),
        rem_(static_cast<std::size_t>(parts), capacity),
        aff_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_), 0),
        part_of_(static_cast<std::size_t>(n_), -1),
        slot_(static_cast<std::size_t>(n_), 0),
        members_(static_cast<std::size_t>(parts) *
                     static_cast<std::size_t>(capacity),
                 -1),
        part_degree_(static_cast<std::size_t>(parts), 0),
        seen_(static_cast<std::size_t>(n_), 0),
        part_seen_(static_cast<std::size_t>(parts), 0) {}

  /// Part of every item, after seeding and local search.
  std::vector<int> run() {
    seed();
    const bool spare = static_cast<std::int64_t>(k_) * capacity_ > n_;
    for (int round = 0; round < kRefineRounds; ++round) {
      const bool moved = spare && move_pass();
      if (!swap_pass() && !moved) break;
    }
    return part_of_;
  }

 private:
  std::int64_t& aff(int i, int p) {
    return aff_[static_cast<std::size_t>(i) * static_cast<std::size_t>(k_) +
                static_cast<std::size_t>(p)];
  }
  int part(int i) const { return part_of_[static_cast<std::size_t>(i)]; }
  int& rem(int p) { return rem_[static_cast<std::size_t>(p)]; }
  /// Members of p occupy slots [p * capacity, p * capacity + size).
  int* members(int p) {
    return members_.data() +
           static_cast<std::size_t>(p) * static_cast<std::size_t>(capacity_);
  }
  int part_size(int p) { return capacity_ - rem(p); }
  /// Moves cursor_ along i's row past the partners at or below `after`.
  /// The swap sweep asks for ascending j only, so the cursor walks each
  /// row once per sweep.
  void skip_partners_to(int i, int after) {
    const std::size_t end = g_.row_end(i);
    while (cursor_ < end && g_.id[cursor_] <= after) ++cursor_;
  }
  /// w(i, j) for j not below the cursor's partner, advancing the cursor.
  std::int64_t weight(int i, int j) {
    const std::size_t end = g_.row_end(i);
    while (cursor_ < end && g_.id[cursor_] < j) ++cursor_;
    return cursor_ < end && g_.id[cursor_] == j ? g_.weight[cursor_] : 0;
  }

  /// Greedy seed: heaviest communicators placed first, each into the part
  /// it already talks to most among those with spare capacity (lowest part
  /// index on ties — all deterministic).
  void seed() {
    std::vector<std::int64_t> row_sum(static_cast<std::size_t>(n_), 0);
    for (int i = 0; i < n_; ++i) {
      for (std::size_t e = g_.row_begin(i); e < g_.row_end(i); ++e) {
        row_sum[static_cast<std::size_t>(i)] += g_.weight[e];
      }
    }
    std::vector<int> order(static_cast<std::size_t>(n_));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return row_sum[static_cast<std::size_t>(a)] >
             row_sum[static_cast<std::size_t>(b)];
    });
    for (const int i : order) {
      int best = -1;
      for (int p = 0; p < k_; ++p) {
        if (rem(p) <= 0) continue;
        if (best == -1 || aff(i, p) > aff(i, best)) best = p;
      }
      place(i, best);
    }
  }

  /// Moves each item to the lowest-index part with spare capacity that it
  /// talks to more than to its own. Gaining parts hold a partner of i.
  bool move_pass() {
    bool improved = false;
    for (int i = 0; i < n_; ++i) {
      const std::int64_t own = aff(i, part(i));
      int to = -1;
      for (std::size_t e = g_.row_begin(i); e < g_.row_end(i); ++e) {
        const int p = part(g_.id[e]);
        if (rem(p) > 0 && aff(i, p) > own && (to < 0 || p < to)) to = p;
      }
      if (to >= 0) {
        move(i, to);
        improved = true;
      }
    }
    return improved;
  }

  /// First-improvement swap sweep: pairs (i, j) in ascending order, each
  /// profitable swap applied at once.
  bool swap_pass() {
    bool improved = false;
    for (int i = 0; i < n_; ++i) {
      cursor_ = g_.above(i);
      for (int j = next_swap(i, i); j >= 0; j = next_swap(i, j)) {
        swap_items(i, j);
        improved = true;
      }
    }
    return improved;
  }

  /// The first j > after, ascending, whose swap with i gains, or -1.
  /// gain = (aff(i,pj) - aff(i,pi)) + (aff(j,pi) - aff(j,pj)) - 2 w(i,j) with
  /// w >= 0, so a pair gains only if (A) i talks more to pj than to pi —
  /// then j shares a part with a partner of i — or (B) j talks more to pi
  /// than to pj — then j is a partner of a member of pi. Listing those
  /// candidates visits about deg(i) + (sum of degrees in pi) neighbours,
  /// each costing about kListedCost scanned pairs (its part and affinity
  /// reads land on scattered rows); where that is more than the pairs
  /// left, scan them all instead.
  int next_swap(int i, int after) {
    const std::int64_t listing =
        g_.degree(i) + part_degree_[static_cast<std::size_t>(part(i))];
    if (kListedCost * listing < n_ - 1 - after) {
      return first_listed_swap(i, after);
    }
    return first_scanned_swap(i, after);
  }

  int first_scanned_swap(int i, int after) {
    const int pi = part(i);
    // The cursor walks i's row in step with j, passing each partner as j
    // reaches it.
    skip_partners_to(i, after);
    const std::size_t end = g_.row_end(i);
    std::size_t cursor = cursor_;
    int found = -1;
    for (int j = after + 1; j < n_; ++j) {
      const bool partner = cursor < end && g_.id[cursor] == j;
      const std::int64_t w = partner ? g_.weight[cursor] : 0;
      cursor += partner;
      const int pj = part(j);
      if (pj == pi) continue;
      const std::int64_t gain =
          (aff(i, pj) - aff(i, pi)) + (aff(j, pi) - aff(j, pj)) - 2 * w;
      if (gain > 0) {
        found = j;
        break;
      }
    }
    cursor_ = cursor;
    return found;
  }

  int first_listed_swap(int i, int after) {
    const int pi = part(i);
    const std::int64_t own = aff(i, pi);
    ++stamp_;
    candidates_.clear();
    // (A) every member of a part that i talks to more than to its own.
    for (std::size_t e = g_.row_begin(i); e < g_.row_end(i); ++e) {
      const int p = part(g_.id[e]);
      if (p == pi || part_seen_[static_cast<std::size_t>(p)] == stamp_) {
        continue;
      }
      part_seen_[static_cast<std::size_t>(p)] = stamp_;
      if (aff(i, p) <= own) continue;
      const int* m = members(p);
      for (int s = 0; s < part_size(p); ++s) {
        seen_[static_cast<std::size_t>(m[s])] = stamp_;
        if (m[s] > after) candidates_.push_back(m[s]);
      }
    }
    // (B) partners of pi's members that talk more to pi than to their own.
    const int* m = members(pi);
    for (int s = 0; s < part_size(pi); ++s) {
      for (std::size_t e = g_.row_begin(m[s]); e < g_.row_end(m[s]); ++e) {
        const int z = g_.id[e];
        if (z <= after || seen_[static_cast<std::size_t>(z)] == stamp_) {
          continue;
        }
        seen_[static_cast<std::size_t>(z)] = stamp_;
        const int pz = part(z);
        if (pz != pi && aff(z, pi) > aff(z, pz)) candidates_.push_back(z);
      }
    }
    std::sort(candidates_.begin(), candidates_.end());
    skip_partners_to(i, after);
    for (const int j : candidates_) {
      const int pj = part(j);
      const std::int64_t delta = (aff(i, pj) - own) + (aff(j, pi) - aff(j, pj));
      if (delta > 0 && delta - 2 * weight(i, j) > 0) return j;
    }
    return -1;
  }

  void add_affinity(int i, int p, int sign) {
    for (std::size_t e = g_.row_begin(i); e < g_.row_end(i); ++e) {
      aff(g_.id[e], p) += sign * g_.weight[e];
    }
  }

  void place(int i, int p) {
    part_of_[static_cast<std::size_t>(i)] = p;
    slot_[static_cast<std::size_t>(i)] = part_size(p);
    members(p)[part_size(p)] = i;
    --rem(p);
    part_degree_[static_cast<std::size_t>(p)] += g_.degree(i);
    add_affinity(i, p, +1);
  }

  void move(int i, int to) {
    const int from = part(i);
    // Fill i's slot with from's last member, then append i to `to`.
    const int last = members(from)[part_size(from) - 1];
    members(from)[slot_[static_cast<std::size_t>(i)]] = last;
    slot_[static_cast<std::size_t>(last)] = slot_[static_cast<std::size_t>(i)];
    ++rem(from);
    part_degree_[static_cast<std::size_t>(from)] -= g_.degree(i);
    add_affinity(i, from, -1);
    place(i, to);
  }

  /// aff(z, pi) += w(z, j) - w(z, i) and aff(z, pj) -= the same, in one
  /// merge walk over the two sorted neighbour rows.
  void swap_items(int i, int j) {
    const int pi = part(i);
    const int pj = part(j);
    members(pi)[slot_[static_cast<std::size_t>(i)]] = j;
    members(pj)[slot_[static_cast<std::size_t>(j)]] = i;
    std::swap(slot_[static_cast<std::size_t>(i)],
              slot_[static_cast<std::size_t>(j)]);
    part_of_[static_cast<std::size_t>(i)] = pj;
    part_of_[static_cast<std::size_t>(j)] = pi;
    const std::int64_t shift = g_.degree(j) - g_.degree(i);
    part_degree_[static_cast<std::size_t>(pi)] += shift;
    part_degree_[static_cast<std::size_t>(pj)] -= shift;
    std::size_t a = g_.row_begin(i);
    std::size_t b = g_.row_begin(j);
    const std::size_t a_end = g_.row_end(i);
    const std::size_t b_end = g_.row_end(j);
    while (a < a_end || b < b_end) {
      const int za = a < a_end ? g_.id[a] : n_;
      const int zb = b < b_end ? g_.id[b] : n_;
      const int z = std::min(za, zb);
      std::int64_t delta = 0;
      if (zb == z) delta += g_.weight[b++];
      if (za == z) delta -= g_.weight[a++];
      aff(z, pi) += delta;
      aff(z, pj) -= delta;
    }
  }

  const Neighbours& g_;
  int n_;
  int k_;
  int capacity_;
  std::vector<int> rem_;           ///< spare capacity per part
  std::vector<std::int64_t> aff_;  ///< aff[i][p] = sum of w(i, j in p)
  std::vector<int> part_of_;
  std::vector<int> slot_;     ///< position of each item in its part's slots
  std::vector<int> members_;  ///< capacity slots per part, filled first
  std::vector<std::int64_t> part_degree_;  ///< sum of members' degrees
  /// Position in the swap sweep's current row i: every partner of i at or
  /// below the last j tried lies before it.
  std::size_t cursor_ = 0;
  // Scratch for first_listed_swap: an item or part is marked when its
  // stamp equals stamp_.
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> part_seen_;
  std::vector<int> candidates_;
};

/// Greedy placement of socket groups onto mesh sockets: groups in
/// descending order of external traffic, each onto the free socket with
/// the cheapest hop-weighted cost to the groups already placed (lowest
/// socket id on ties). Only placed groups sharing an edge with the group
/// add to its cost. On fully-connected machines every placement costs the
/// same, so the identity placement is returned unchanged.
std::vector<int> place_groups(const Neighbours& g,
                              const std::vector<int>& group_of,
                              const std::vector<std::vector<ThreadId>>& groups,
                              const Topology& topology) {
  const int k = static_cast<int>(groups.size());
  std::vector<int> socket_of_group(static_cast<std::size_t>(k));
  std::iota(socket_of_group.begin(), socket_of_group.end(), 0);
  if (topology.socket_mesh_cols() == 0 || k <= 1) return socket_of_group;

  // Group graph: edges[a] lists (b, total communication between a and b).
  std::vector<std::vector<std::pair<int, std::int64_t>>> edges(
      static_cast<std::size_t>(k));
  std::vector<std::int64_t> external(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> sum(static_cast<std::size_t>(k), 0);
  for (int a = 0; a < k; ++a) {
    for (const int x : groups[static_cast<std::size_t>(a)]) {
      for (std::size_t e = g.row_begin(x); e < g.row_end(x); ++e) {
        sum[static_cast<std::size_t>(group_of[static_cast<std::size_t>(
            g.id[e])])] += g.weight[e];
      }
    }
    sum[static_cast<std::size_t>(a)] = 0;
    for (int b = 0; b < k; ++b) {
      const std::int64_t w = std::exchange(sum[static_cast<std::size_t>(b)], 0);
      if (w == 0) continue;
      edges[static_cast<std::size_t>(a)].emplace_back(b, w);
      external[static_cast<std::size_t>(a)] += w;
    }
  }

  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return external[static_cast<std::size_t>(a)] >
           external[static_cast<std::size_t>(b)];
  });

  std::fill(socket_of_group.begin(), socket_of_group.end(), -1);
  std::vector<bool> socket_used(static_cast<std::size_t>(k), false);
  std::vector<std::pair<int, std::int64_t>> placed;  // (socket, edge weight)
  for (const int grp : order) {
    placed.clear();
    for (const auto& [b, w] : edges[static_cast<std::size_t>(grp)]) {
      const int s = socket_of_group[static_cast<std::size_t>(b)];
      if (s >= 0) placed.emplace_back(s, w);
    }
    int best_socket = -1;
    std::int64_t best_cost = 0;
    for (int s = 0; s < k; ++s) {
      if (socket_used[static_cast<std::size_t>(s)]) continue;
      std::int64_t cost = 0;
      for (const auto& [ps, w] : placed) {
        cost += w * topology.socket_hops(s, ps);
      }
      if (best_socket == -1 || cost < best_cost) {
        best_socket = s;
        best_cost = cost;
      }
    }
    socket_of_group[static_cast<std::size_t>(grp)] = best_socket;
    socket_used[static_cast<std::size_t>(best_socket)] = true;
  }
  return socket_of_group;
}

}  // namespace

Mapping MultisectionMapper::map(const CommMatrix& comm) const {
  const int num_threads = comm.size();
  if (num_threads > topology_->num_cores()) {
    throw std::invalid_argument("MultisectionMapper: more threads than cores");
  }
  Mapping mapping(static_cast<std::size_t>(num_threads), kNoCore);
  if (num_threads == 0) return mapping;

  const WeightClamp clamp(num_threads, topology_->max_socket_hops());
  const Neighbours all = all_neighbours(comm, clamp);

  // Top level: threads -> socket groups, then groups -> mesh positions.
  const std::vector<int> group_of =
      Partitioner(all, topology_->num_sockets(), topology_->cores_per_socket())
          .run();
  std::vector<std::vector<ThreadId>> socket_groups(
      static_cast<std::size_t>(topology_->num_sockets()));
  for (ThreadId t = 0; t < num_threads; ++t) {  // ascending: members sorted
    const int g = group_of[static_cast<std::size_t>(t)];
    socket_groups[static_cast<std::size_t>(g)].push_back(t);
  }
  const auto socket_of_group =
      place_groups(all, group_of, socket_groups, *topology_);

  std::vector<int> local(static_cast<std::size_t>(num_threads), -1);
  for (std::size_t g = 0; g < socket_groups.size(); ++g) {
    const auto& members = socket_groups[g];
    if (members.empty()) continue;
    const int socket = socket_of_group[g];
    // Middle level: this socket's threads -> L2 groups.
    const Neighbours within =
        neighbours_within(comm, clamp, all, members, local);
    const std::vector<int> l2_of =
        Partitioner(within, topology_->l2s_per_socket(),
                    topology_->cores_per_l2())
            .run();
    // Leaf level: members of one L2 group onto its cores, in ascending
    // order (all cores under one L2 are equidistant, so order is free).
    std::vector<int> filled(
        static_cast<std::size_t>(topology_->l2s_per_socket()), 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const int l = l2_of[i];
      mapping[static_cast<std::size_t>(members[i])] =
          static_cast<CoreId>(socket) * topology_->cores_per_socket() +
          static_cast<CoreId>(l) * topology_->cores_per_l2() +
          static_cast<CoreId>(filled[static_cast<std::size_t>(l)]++);
    }
  }
  return mapping;
}

}  // namespace tlbmap
