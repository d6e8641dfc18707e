// Tests for the hierarchical (pair-of-pairs) mapper built on the matching
// algorithms — the paper's Sec. V-A procedure — and for the recursive
// multisection mapper plus the strategy dispatcher that chooses between
// them at manycore scale.
#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "mapping/hierarchical.hpp"
#include "mapping/multisection.hpp"
#include "mapping/strategy.hpp"

namespace tlbmap {
namespace {

const Topology& harpertown() {
  static const Topology t{MachineConfig::harpertown()};
  return t;
}

/// Band matrix: strong neighbour communication like BT/SP.
CommMatrix band_matrix(int n, std::uint64_t strong = 100,
                       std::uint64_t weak = 1) {
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      m.add(a, b, b == a + 1 ? strong : weak);
    }
  }
  return m;
}

TEST(Hierarchical, ProducesValidMapping) {
  HierarchicalMapper mapper(harpertown());
  const Mapping m = mapper.map(band_matrix(8));
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_EQ(m.size(), 8u);
}

TEST(Hierarchical, StrongPairsShareL2) {
  HierarchicalMapper mapper(harpertown());
  // Pairs (0,1)(2,3)(4,5)(6,7) with overwhelming weight.
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 1000);
  const Mapping m = mapper.map(comm);
  for (int t = 0; t < 8; t += 2) {
    EXPECT_TRUE(harpertown().share_l2(m[static_cast<std::size_t>(t)],
                                      m[static_cast<std::size_t>(t + 1)]))
        << "pair " << t;
  }
}

TEST(Hierarchical, SecondLevelGroupsShareSocket) {
  HierarchicalMapper mapper(harpertown());
  // Pairs (0,1)(2,3)(4,5)(6,7); quads {0,1,2,3} and {4,5,6,7} strongly
  // coupled at the second level.
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 1000);
  comm.add(0, 2, 100);
  comm.add(1, 3, 100);
  comm.add(4, 6, 100);
  comm.add(5, 7, 100);
  const Mapping m = mapper.map(comm);
  for (const auto& [a, b] : {std::pair{0, 2}, {1, 3}, {4, 6}, {5, 7}}) {
    EXPECT_TRUE(harpertown().share_socket(m[static_cast<std::size_t>(a)],
                                          m[static_cast<std::size_t>(b)]))
        << a << "," << b;
  }
}

TEST(Hierarchical, BandMatrixBeatsBadPlacements) {
  HierarchicalMapper mapper(harpertown());
  const CommMatrix comm = band_matrix(8);
  const Mapping tuned = mapper.map(comm);
  const double tuned_cost = mapping_cost(comm, tuned, harpertown());
  // The tuned cost must beat the worst observed random placements and be
  // no worse than identity (which is near-optimal for a band).
  double worst_random = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    worst_random = std::max(
        worst_random,
        mapping_cost(comm, random_mapping(8, 8, seed), harpertown()));
  }
  EXPECT_LT(tuned_cost, worst_random);
  EXPECT_LE(tuned_cost,
            mapping_cost(comm, identity_mapping(8), harpertown()) + 1e-9);
}

TEST(Hierarchical, HomogeneousMatrixStillValid) {
  HierarchicalMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) comm.add(a, b, 7);
  }
  EXPECT_TRUE(is_valid_mapping(mapper.map(comm), 8));
}

TEST(Hierarchical, AllZeroMatrixStillValid) {
  HierarchicalMapper mapper(harpertown());
  EXPECT_TRUE(is_valid_mapping(mapper.map(CommMatrix(8)), 8));
}

TEST(Hierarchical, FewerThreadsThanCores) {
  HierarchicalMapper mapper(harpertown());
  CommMatrix comm(4);
  comm.add(0, 1, 100);
  comm.add(2, 3, 100);
  const Mapping m = mapper.map(comm);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_TRUE(harpertown().share_l2(m[0], m[1]));
  EXPECT_TRUE(harpertown().share_l2(m[2], m[3]));
}

TEST(Hierarchical, SingleThreadPair) {
  const Topology tiny{MachineConfig::tiny()};
  HierarchicalMapper mapper(tiny);
  CommMatrix comm(2);
  comm.add(0, 1, 5);
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, 2));
}

TEST(Hierarchical, OddThreadCountsMapValidly) {
  // Odd thread counts exercise the virtual-padding path: padding to the
  // core count keeps every matching even-sized, so no assert, no throw, a
  // valid placement out.
  HierarchicalMapper mapper(harpertown());
  HierarchicalMapper greedy(
      harpertown(),
      HierarchicalMapperConfig{HierarchicalMapperConfig::Matcher::kGreedy});
  for (int n : {1, 3, 5, 7}) {
    CommMatrix comm(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) comm.add(a, b, (a + b) % 5 + 1);
    }
    const Mapping m = mapper.map(comm);
    EXPECT_EQ(m.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(is_valid_mapping(m, 8)) << "blossom n=" << n;
    EXPECT_TRUE(is_valid_mapping(greedy.map(comm), 8)) << "greedy n=" << n;
  }
  // Odd and all-zero at once: the fully degenerate input.
  EXPECT_TRUE(is_valid_mapping(mapper.map(CommMatrix(5)), 8));
}

TEST(Hierarchical, RejectsMoreThreadsThanCores) {
  HierarchicalMapper mapper(harpertown());
  EXPECT_THROW(mapper.map(CommMatrix(9)), std::invalid_argument);
}

TEST(Hierarchical, MergeLevelsExposeStructure) {
  HierarchicalMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 1000);
  const auto levels = mapper.merge_levels(comm);
  // 8 -> 4 groups -> 2 groups: two merge passes down to socket count.
  ASSERT_EQ(levels.size(), 2u);
  ASSERT_EQ(levels[0].size(), 4u);
  for (const auto& group : levels[0]) {
    ASSERT_EQ(group.size(), 2u);
    EXPECT_EQ(group[0] / 2, group[1] / 2);  // (0,1)(2,3)... merged first
  }
  EXPECT_EQ(levels[1].size(), 2u);
  EXPECT_EQ(levels[1][0].size(), 4u);
}

TEST(Hierarchical, GreedyMatcherOptionWorks) {
  HierarchicalMapper mapper(
      harpertown(),
      HierarchicalMapperConfig{HierarchicalMapperConfig::Matcher::kGreedy});
  const Mapping m = mapper.map(band_matrix(8));
  EXPECT_TRUE(is_valid_mapping(m, 8));
}

TEST(Hierarchical, GreedyNeverBeatsBlossomOnCost) {
  HierarchicalMapper blossom(harpertown());
  HierarchicalMapper greedy(
      harpertown(),
      HierarchicalMapperConfig{HierarchicalMapperConfig::Matcher::kGreedy});
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CommMatrix comm(8);
    std::mt19937_64 rng(seed);
    for (int a = 0; a < 8; ++a) {
      for (int b = a + 1; b < 8; ++b) comm.add(a, b, rng() % 100);
    }
    // Blossom maximises communication kept at the lowest hierarchy levels;
    // in the cost metric (lower = better) it should not lose by much. We
    // assert only the sane direction on total first-level weight.
    const auto b_levels = blossom.merge_levels(comm);
    const auto g_levels = greedy.merge_levels(comm);
    auto level_weight = [&](const std::vector<std::vector<ThreadId>>& gs) {
      std::uint64_t w = 0;
      for (const auto& g : gs) w += comm.at(g[0], g[1]);
      return w;
    };
    EXPECT_GE(level_weight(b_levels[0]), level_weight(g_levels[0]))
        << "seed " << seed;
  }
}

TEST(Hierarchical, SaturatedPairSharesL2) {
  // A pinned counter must rank first, not wrap negative and make Edmonds
  // reject the weight matrix.
  CommMatrix comm = band_matrix(8);
  comm.add(0, 5, CommMatrix::kCounterMax);
  Mapping m;
  ASSERT_NO_THROW(m = HierarchicalMapper(harpertown()).map(comm));
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_TRUE(harpertown().share_l2(m[0], m[5]));
}

TEST(Hierarchical, RejectsNonPowerOfTwoArity) {
  MachineConfig c;
  c.num_sockets = 1;
  c.cores_per_socket = 6;
  c.cores_per_l2 = 3;
  const Topology t(c);
  EXPECT_THROW(HierarchicalMapper{t}, std::invalid_argument);
}

// ------------------------------------------------------------ Multisection

/// Block-diagonal communities sized to the machine's socket capacity, with
/// sub-communities sized to an L2 — the clustered traffic both mappers are
/// built to exploit.
CommMatrix clustered_matrix(int n, int socket_span, int l2_span) {
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      std::uint64_t w = 1;
      if (a / socket_span == b / socket_span) w = 20;
      if (a / l2_span == b / l2_span) w = 400;
      m.add(a, b, w);
    }
  }
  return m;
}

TEST(Multisection, ProducesValidMapping) {
  MultisectionMapper mapper(harpertown());
  const Mapping m = mapper.map(band_matrix(8));
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_EQ(m.size(), 8u);
}

TEST(Multisection, StrongPairsShareL2) {
  MultisectionMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 1000);
  const Mapping m = mapper.map(comm);
  for (int t = 0; t < 8; t += 2) {
    EXPECT_TRUE(harpertown().share_l2(m[static_cast<std::size_t>(t)],
                                      m[static_cast<std::size_t>(t + 1)]))
        << "pair " << t;
  }
}

TEST(Multisection, HandlesNonPowerOfTwoArity) {
  // The topology Edmonds rejects outright: 6 cores, 3 per L2.
  MachineConfig c;
  c.num_sockets = 1;
  c.cores_per_socket = 6;
  c.cores_per_l2 = 3;
  const Topology t(c);
  MultisectionMapper mapper(t);
  CommMatrix comm(6);
  comm.add(0, 1, 500);
  comm.add(0, 2, 500);
  comm.add(1, 2, 500);
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, 6));
  EXPECT_TRUE(t.share_l2(m[0], m[1]));
  EXPECT_TRUE(t.share_l2(m[0], m[2]));
}

TEST(Multisection, FewerThreadsThanCoresAndDegenerateInputs) {
  MultisectionMapper mapper(harpertown());
  CommMatrix comm(4);
  comm.add(0, 1, 100);
  comm.add(2, 3, 100);
  const Mapping m = mapper.map(comm);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_TRUE(harpertown().share_l2(m[0], m[1]));
  EXPECT_TRUE(harpertown().share_l2(m[2], m[3]));
  EXPECT_TRUE(is_valid_mapping(mapper.map(CommMatrix(8)), 8));
  EXPECT_TRUE(is_valid_mapping(mapper.map(CommMatrix(5)), 8));
  EXPECT_THROW(mapper.map(CommMatrix(9)), std::invalid_argument);
}

TEST(Multisection, PlacesGroupsOnMeshAwareSockets) {
  // On the mesh-priced manycore preset, heavy cross-community traffic
  // should land the two communities on nearby sockets; validity and a win
  // over random placement are the hard assertions.
  const Topology t{MachineConfig::manycore()};
  const int n = 64;
  MultisectionMapper mapper(t);
  const CommMatrix comm = clustered_matrix(n, 32, 8);
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, t.num_cores()));
  const double tuned = mapping_cost(comm, m, t);
  double best_random = 1e300;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    best_random = std::min(
        best_random,
        mapping_cost(comm, random_mapping(n, t.num_cores(), seed), t));
  }
  EXPECT_LT(tuned, best_random);
}

TEST(Multisection, SaturatedPairSharesSocket) {
  // Two 8-thread cliques, one per manycore socket, plus one heavy pair
  // across them: heavy enough to pull the pair onto one socket, whether it
  // is large or pinned at the counter ceiling.
  const Topology t{MachineConfig::manycore()};
  for (const std::uint64_t heavy : {std::uint64_t{1000000},
                                    CommMatrix::kCounterMax}) {
    CommMatrix comm = clustered_matrix(16, 8, 8);
    comm.add(3, 12, heavy);
    Mapping m;
    ASSERT_NO_THROW(m = MultisectionMapper(t).map(comm));
    EXPECT_TRUE(is_valid_mapping(m, t.num_cores()));
    EXPECT_TRUE(t.share_socket(m[3], m[12])) << "weight " << heavy;
  }
}

TEST(Multisection, QuadsLandOnSockets) {
  MultisectionMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int q = 0; q < 8; q += 4) {
    for (int a = q; a < q + 4; ++a) {
      for (int b = a + 1; b < q + 4; ++b) comm.add(a, b, 100);
    }
  }
  const Mapping m = mapper.map(comm);
  for (int q = 0; q < 8; q += 4) {
    for (int a = q + 1; a < q + 4; ++a) {
      EXPECT_TRUE(
          harpertown().share_socket(m[static_cast<std::size_t>(q)],
                                    m[static_cast<std::size_t>(a)]))
          << a;
    }
  }
}

TEST(Multisection, SaturatedPairSharesL2) {
  // Two 4-thread cliques plus one cross pair heavier than either. A pinned
  // (kCounterMax) pair must rank first like any very heavy pair, not wrap
  // negative and get split across sockets.
  for (const std::uint64_t heavy : {std::uint64_t{1'000'000},
                                    CommMatrix::kCounterMax}) {
    CommMatrix comm(8);
    for (int a = 0; a < 8; ++a) {
      for (int b = a + 1; b < 8; ++b) {
        if (a / 4 == b / 4) comm.add(a, b, 100);
      }
    }
    comm.add(2, 5, heavy);
    const Mapping m = MultisectionMapper(harpertown()).map(comm);
    EXPECT_TRUE(is_valid_mapping(m, 8)) << heavy;
    EXPECT_TRUE(harpertown().share_l2(m[2], m[5]))
        << heavy << ": t2->c" << m[2] << " t5->c" << m[5];
  }
}

TEST(Multisection, ComparableToHierarchicalOnRandomMatrices) {
  MultisectionMapper multi(harpertown());
  HierarchicalMapper hier(harpertown());
  std::mt19937_64 rng(4);
  double multi_total = 0.0, hier_total = 0.0, random_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    CommMatrix comm(8);
    for (int a = 0; a < 8; ++a) {
      for (int b = a + 1; b < 8; ++b) comm.add(a, b, rng() % 100);
    }
    multi_total += mapping_cost(comm, multi.map(comm), harpertown());
    hier_total += mapping_cost(comm, hier.map(comm), harpertown());
    random_total += mapping_cost(
        comm, random_mapping(8, 8, static_cast<std::uint64_t>(trial)),
        harpertown());
  }
  // Both structured mappers beat random placement on aggregate; neither
  // needs to dominate the other.
  EXPECT_LT(multi_total, random_total);
  EXPECT_LT(hier_total, random_total);
  EXPECT_LT(multi_total, hier_total * 1.25);
}

TEST(Multisection, RefinementFixesGreedySeed) {
  // Two sockets of two cores, one core per L2, so only the socket split
  // matters. The decoy (0, 1) edge is the heaviest single pair the greedy
  // seed sees first, but the optimal split is {0, 2} | {1, 3}: its cut is
  // 50, against 120 for {0, 1} | {2, 3} and 170 for {0, 3} | {1, 2}.
  MachineConfig c;
  c.num_sockets = 2;
  c.cores_per_socket = 2;
  c.cores_per_l2 = 1;
  const Topology t(c);
  CommMatrix comm(4);
  comm.add(0, 1, 50);
  comm.add(0, 2, 60);
  comm.add(1, 3, 60);
  const Mapping m = MultisectionMapper(t).map(comm);
  ASSERT_TRUE(is_valid_mapping(m, 4));
  EXPECT_TRUE(t.share_socket(m[0], m[2]));
  EXPECT_TRUE(t.share_socket(m[1], m[3]));
}

// The manycore contract from the issue: at N >= 128, multisection must be
// no more than 5% worse than the Edmonds hierarchy on mapping cost while
// finishing faster in wall-clock.
TEST(Multisection, WithinFivePercentOfEdmondsAndFasterAt128) {
  MachineConfig c;
  c.num_sockets = 16;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 2;
  const Topology t(c);  // 128 cores, pow-2 arities so Edmonds can run
  const int n = 128;
  const CommMatrix comm = clustered_matrix(n, /*socket_span=*/8,
                                           /*l2_span=*/2);

  // Each mapper's time is its fastest of 7 alternating runs, so one slow
  // scheduling slice on a loaded host cannot decide the comparison.
  using Clock = std::chrono::steady_clock;
  auto timed = [](auto&& run, Clock::duration& best) {
    const auto start = Clock::now();
    Mapping mapping = run();
    best = std::min(best, Clock::now() - start);
    return mapping;
  };
  Clock::duration edmonds_time = Clock::duration::max();
  Clock::duration multi_time = Clock::duration::max();
  Mapping edmonds;
  Mapping multi;
  for (int run = 0; run < 7; ++run) {
    edmonds = timed([&] { return HierarchicalMapper(t).map(comm); },
                    edmonds_time);
    multi = timed([&] { return MultisectionMapper(t).map(comm); }, multi_time);
  }

  ASSERT_TRUE(is_valid_mapping(edmonds, 128));
  ASSERT_TRUE(is_valid_mapping(multi, 128));
  const double edmonds_cost = mapping_cost(comm, edmonds, t);
  const double multi_cost = mapping_cost(comm, multi, t);
  EXPECT_LE(multi_cost, edmonds_cost * 1.05)
      << "multisection " << multi_cost << " vs edmonds " << edmonds_cost;
  const auto edmonds_us =
      std::chrono::duration_cast<std::chrono::microseconds>(edmonds_time)
          .count();
  const auto multi_us =
      std::chrono::duration_cast<std::chrono::microseconds>(multi_time)
          .count();
  EXPECT_LT(multi_us, edmonds_us)
      << "multisection " << multi_us << "us vs edmonds " << edmonds_us
      << "us";
}

// ------------------------------------------ Multisection dense reference

/// Dense reference for MultisectionMapper: the same greedy seed, local
/// search and mesh placement over an N x N weight copy, visiting every pair
/// and every part. The production mapper's sparse search must reproduce its
/// mappings bit for bit.
namespace reference {

class Partitioner {
 public:
  Partitioner(const CommMatrix& comm, const WeightClamp& clamp,
              const std::vector<ThreadId>& items, int parts, int capacity)
      : n_(static_cast<int>(items.size())),
        k_(parts),
        items_(items),
        rem_(static_cast<std::size_t>(parts), capacity),
        w_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 0),
        aff_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_), 0),
        part_of_(static_cast<std::size_t>(n_), -1) {
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        const std::int64_t c =
            clamp(comm.at(items_[static_cast<std::size_t>(i)],
                          items_[static_cast<std::size_t>(j)]));
        w(i, j) = c;
        w(j, i) = c;
      }
    }
  }

  std::vector<std::vector<ThreadId>> run() {
    seed();
    refine();
    std::vector<std::vector<ThreadId>> groups(static_cast<std::size_t>(k_));
    for (int i = 0; i < n_; ++i) {
      groups[static_cast<std::size_t>(part_of_[static_cast<std::size_t>(i)])]
          .push_back(items_[static_cast<std::size_t>(i)]);
    }
    return groups;
  }

 private:
  std::int64_t& w(int i, int j) {
    return w_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }
  std::int64_t& aff(int i, int p) {
    return aff_[static_cast<std::size_t>(i) * static_cast<std::size_t>(k_) +
                static_cast<std::size_t>(p)];
  }

  void seed() {
    std::vector<int> order(static_cast<std::size_t>(n_));
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::int64_t> row_sum(static_cast<std::size_t>(n_), 0);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        row_sum[static_cast<std::size_t>(i)] += w(i, j);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return row_sum[static_cast<std::size_t>(a)] >
             row_sum[static_cast<std::size_t>(b)];
    });
    for (const int i : order) {
      int best = -1;
      for (int p = 0; p < k_; ++p) {
        if (rem_[static_cast<std::size_t>(p)] <= 0) continue;
        if (best == -1 || aff(i, p) > aff(i, best)) best = p;
      }
      place(i, best);
    }
  }

  void place(int i, int p) {
    part_of_[static_cast<std::size_t>(i)] = p;
    --rem_[static_cast<std::size_t>(p)];
    for (int j = 0; j < n_; ++j) aff(j, p) += w(i, j);
  }

  void refine() {
    for (int round = 0; round < 8; ++round) {
      bool improved = false;
      for (int i = 0; i < n_; ++i) {
        const int pi = part_of_[static_cast<std::size_t>(i)];
        for (int p = 0; p < k_; ++p) {
          if (p == pi || rem_[static_cast<std::size_t>(p)] <= 0) continue;
          if (aff(i, p) - aff(i, pi) > 0) {
            move(i, p);
            improved = true;
            break;
          }
        }
      }
      for (int i = 0; i < n_; ++i) {
        for (int j = i + 1; j < n_; ++j) {
          const int pi = part_of_[static_cast<std::size_t>(i)];
          const int pj = part_of_[static_cast<std::size_t>(j)];
          if (pi == pj) continue;
          const std::int64_t gain = (aff(i, pj) - aff(i, pi)) +
                                    (aff(j, pi) - aff(j, pj)) - 2 * w(i, j);
          if (gain > 0) {
            swap_items(i, j);
            improved = true;
          }
        }
      }
      if (!improved) break;
    }
  }

  void move(int i, int to) {
    const int from = part_of_[static_cast<std::size_t>(i)];
    part_of_[static_cast<std::size_t>(i)] = to;
    ++rem_[static_cast<std::size_t>(from)];
    --rem_[static_cast<std::size_t>(to)];
    for (int j = 0; j < n_; ++j) {
      aff(j, from) -= w(i, j);
      aff(j, to) += w(i, j);
    }
  }

  void swap_items(int i, int j) {
    const int pi = part_of_[static_cast<std::size_t>(i)];
    const int pj = part_of_[static_cast<std::size_t>(j)];
    part_of_[static_cast<std::size_t>(i)] = pj;
    part_of_[static_cast<std::size_t>(j)] = pi;
    for (int z = 0; z < n_; ++z) {
      const std::int64_t delta = w(z, j) - w(z, i);
      aff(z, pi) += delta;
      aff(z, pj) -= delta;
    }
  }

  int n_;
  int k_;
  const std::vector<ThreadId>& items_;
  std::vector<int> rem_;
  std::vector<std::int64_t> w_;
  std::vector<std::int64_t> aff_;
  std::vector<int> part_of_;
};

std::vector<int> place_groups(
    const CommMatrix& comm, const WeightClamp& clamp, const Topology& topology,
    const std::vector<std::vector<ThreadId>>& groups) {
  const int k = static_cast<int>(groups.size());
  std::vector<int> socket_of_group(static_cast<std::size_t>(k));
  std::iota(socket_of_group.begin(), socket_of_group.end(), 0);
  if (topology.socket_mesh_cols() == 0 || k <= 1) return socket_of_group;

  std::vector<std::vector<std::int64_t>> edge(
      static_cast<std::size_t>(k),
      std::vector<std::int64_t>(static_cast<std::size_t>(k), 0));
  std::vector<std::int64_t> external(static_cast<std::size_t>(k), 0);
  for (std::size_t a = 0; a < groups.size(); ++a) {
    for (std::size_t b = a + 1; b < groups.size(); ++b) {
      std::int64_t e = 0;
      for (const ThreadId x : groups[a]) {
        for (const ThreadId y : groups[b]) e += clamp(comm.at(x, y));
      }
      edge[a][b] = edge[b][a] = e;
      external[a] += e;
      external[b] += e;
    }
  }
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return external[static_cast<std::size_t>(a)] >
           external[static_cast<std::size_t>(b)];
  });
  std::vector<bool> socket_used(static_cast<std::size_t>(k), false);
  std::vector<int> placed;
  for (const int g : order) {
    int best_socket = -1;
    std::int64_t best_cost = 0;
    for (int s = 0; s < k; ++s) {
      if (socket_used[static_cast<std::size_t>(s)]) continue;
      std::int64_t cost = 0;
      for (const int pg : placed) {
        cost += edge[static_cast<std::size_t>(g)]
                    [static_cast<std::size_t>(pg)] *
                topology.socket_hops(
                    s, socket_of_group[static_cast<std::size_t>(pg)]);
      }
      if (best_socket == -1 || cost < best_cost) {
        best_socket = s;
        best_cost = cost;
      }
    }
    socket_of_group[static_cast<std::size_t>(g)] = best_socket;
    socket_used[static_cast<std::size_t>(best_socket)] = true;
    placed.push_back(g);
  }
  return socket_of_group;
}

Mapping multisection(const CommMatrix& comm, const Topology& topology) {
  const int n = comm.size();
  const WeightClamp clamp(n, topology.max_socket_hops());
  Mapping mapping(static_cast<std::size_t>(n), kNoCore);
  std::vector<ThreadId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  const auto socket_groups =
      Partitioner(comm, clamp, all, topology.num_sockets(),
                  topology.cores_per_socket())
          .run();
  const auto socket_of_group =
      place_groups(comm, clamp, topology, socket_groups);
  for (std::size_t g = 0; g < socket_groups.size(); ++g) {
    const auto& members = socket_groups[g];
    if (members.empty()) continue;
    const auto l2_groups = Partitioner(comm, clamp, members,
                                       topology.l2s_per_socket(),
                                       topology.cores_per_l2())
                               .run();
    for (std::size_t l = 0; l < l2_groups.size(); ++l) {
      const CoreId base = static_cast<CoreId>(socket_of_group[g]) *
                              topology.cores_per_socket() +
                          static_cast<CoreId>(l) * topology.cores_per_l2();
      for (std::size_t i = 0; i < l2_groups[l].size(); ++i) {
        mapping[static_cast<std::size_t>(l2_groups[l][i])] =
            base + static_cast<CoreId>(i);
      }
    }
  }
  return mapping;
}

}  // namespace reference

/// splitmix64 step: a small seeded generator for the differential inputs.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A +-1..3 neighbour band plus a sparse random background: the banded,
/// ~10-partners-per-thread traffic of a detected stencil code.
CommMatrix band_background_matrix(int n, std::uint64_t seed) {
  CommMatrix m(n);
  std::uint64_t state = seed;
  for (ThreadId a = 0; a < n; ++a) {
    for (int d = 1; d <= 3 && a + d < n; ++d) {
      m.add(a, a + d, (1024u >> (2 * (d - 1))) + next_random(state) % 64);
    }
  }
  for (int k = 0; k < 2 * n; ++k) {
    const auto a = static_cast<ThreadId>(next_random(state) % n);
    const auto b = static_cast<ThreadId>(next_random(state) % n);
    m.add(a, b, 1 + next_random(state) % 16);
  }
  return m;
}

/// Every pair nonzero: the dense case, where listing swap candidates would
/// cost more than scanning.
CommMatrix dense_random_matrix(int n, std::uint64_t seed) {
  CommMatrix m(n);
  std::uint64_t state = seed;
  for (ThreadId a = 0; a < n; ++a) {
    for (ThreadId b = a + 1; b < n; ++b) {
      m.add(a, b, 1 + next_random(state) % 1000);
    }
  }
  return m;
}

/// MachineConfig::manycore()'s tiles scaled to `sockets` sockets on a
/// 16-column mesh.
Topology scaled_mesh(int sockets) {
  MachineConfig c = MachineConfig::manycore();
  c.num_sockets = sockets;
  c.socket_mesh_cols = 16;
  return Topology(c);
}

void expect_matches_reference(const CommMatrix& comm, const Topology& t,
                              const std::string& what) {
  const Mapping fast = MultisectionMapper(t).map(comm);
  const Mapping dense = reference::multisection(comm, t);
  ASSERT_TRUE(is_valid_mapping(fast, t.num_cores())) << what;
  ASSERT_EQ(fast.size(), dense.size()) << what;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i], dense[i]) << what << ": thread " << i;
  }
}

TEST(MultisectionDifferential, BandMatricesOnScaledMesh) {
  for (const int n : {256, 1024}) {
    const Topology t = scaled_mesh(n / 8);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      expect_matches_reference(band_background_matrix(n, seed * 31 + n), t,
                               "band n=" + std::to_string(n) + " seed " +
                                   std::to_string(seed));
    }
  }
}

TEST(MultisectionDifferential, DenseRandomOnManycore) {
  const Topology t{MachineConfig::manycore()};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    expect_matches_reference(dense_random_matrix(256, seed), t,
                             "dense seed " + std::to_string(seed));
  }
}

TEST(MultisectionDifferential, ClusteredOnFlatTopology) {
  MachineConfig c;
  c.num_sockets = 16;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 2;
  expect_matches_reference(clustered_matrix(128, 8, 2), Topology(c),
                           "clustered");
}

TEST(MultisectionDifferential, FewerThreadsThanCores) {
  // Spare capacity: the move pass runs only here.
  const Topology many{MachineConfig::manycore()};
  for (const int n : {5, 100, 200}) {
    expect_matches_reference(band_background_matrix(n, 7 + n), many,
                             "manycore n=" + std::to_string(n));
  }
  expect_matches_reference(band_matrix(5), harpertown(), "harpertown n=5");
  expect_matches_reference(dense_random_matrix(6, 3), harpertown(),
                           "harpertown dense n=6");
}

TEST(MultisectionDifferential, NonPowerOfTwoArity) {
  MachineConfig c;
  c.num_sockets = 1;
  c.cores_per_socket = 6;
  c.cores_per_l2 = 3;
  const Topology flat(c);
  expect_matches_reference(dense_random_matrix(6, 5), flat, "6 cores");
  expect_matches_reference(band_background_matrix(5, 9), flat, "5 of 6");
  c.num_sockets = 12;
  c.socket_mesh_cols = 4;
  const Topology mesh(c);
  expect_matches_reference(band_background_matrix(72, 11), mesh, "12x6 mesh");
  expect_matches_reference(dense_random_matrix(60, 13), mesh, "60 of 72");
}

TEST(MultisectionDifferential, EmptyAndUniformMatrices) {
  const Topology many{MachineConfig::manycore()};
  expect_matches_reference(CommMatrix(256), many, "empty 256");
  expect_matches_reference(CommMatrix(8), harpertown(), "empty 8");
  CommMatrix uniform(256);
  for (ThreadId a = 0; a < 256; ++a) {
    for (ThreadId b = a + 1; b < 256; ++b) uniform.add(a, b, 7);
  }
  expect_matches_reference(uniform, many, "uniform 256");
}

// ----------------------------------------------------- Strategy dispatch

TEST(MappingStrategyTest, ParseAndPrintRoundTrip) {
  for (const char* name : {"auto", "edmonds", "multisection"}) {
    const auto s = parse_mapping_strategy(name);
    ASSERT_TRUE(s.has_value()) << name;
    EXPECT_STREQ(to_string(*s), name);
  }
  EXPECT_FALSE(parse_mapping_strategy("blossom").has_value());
  EXPECT_FALSE(parse_mapping_strategy("greedy").has_value());
  EXPECT_FALSE(parse_mapping_strategy("").has_value());
}

TEST(MappingStrategyTest, AutoPrefersEdmondsSmallMultisectionLarge) {
  const MappingConfig config;  // kAuto: multisection from 128 threads
  EXPECT_EQ(resolve_strategy(config, CommMatrix(8), harpertown()),
            MappingStrategy::kEdmonds);
  MachineConfig c;
  c.num_sockets = 16;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 2;
  const Topology big(c);
  EXPECT_EQ(resolve_strategy(config, CommMatrix(127), big),
            MappingStrategy::kEdmonds);
  EXPECT_EQ(resolve_strategy(config, CommMatrix(128), big),
            MappingStrategy::kMultisection);
}

TEST(MappingStrategyTest, AutoFallsBackToMultisectionOffPowerOfTwo) {
  MachineConfig c;
  c.num_sockets = 1;
  c.cores_per_socket = 6;
  c.cores_per_l2 = 3;
  const Topology t(c);
  EXPECT_EQ(resolve_strategy(MappingConfig{}, CommMatrix(6), t),
            MappingStrategy::kMultisection);
  // And map_threads must therefore succeed where Edmonds would throw.
  CommMatrix comm(6);
  comm.add(0, 1, 10);
  EXPECT_TRUE(is_valid_mapping(map_threads(comm, t), 6));
}

TEST(MappingStrategyTest, ExplicitStrategiesPassThrough) {
  MappingConfig config;
  config.strategy = MappingStrategy::kMultisection;
  EXPECT_EQ(resolve_strategy(config, CommMatrix(8), harpertown()),
            MappingStrategy::kMultisection);
  config.strategy = MappingStrategy::kEdmonds;
  EXPECT_EQ(resolve_strategy(config, CommMatrix(200), harpertown()),
            MappingStrategy::kEdmonds);
  for (const MappingStrategy s :
       {MappingStrategy::kEdmonds, MappingStrategy::kMultisection}) {
    config.strategy = s;
    EXPECT_TRUE(is_valid_mapping(
        map_threads(band_matrix(8), harpertown(), config), 8))
        << to_string(s);
  }
}

}  // namespace
}  // namespace tlbmap
