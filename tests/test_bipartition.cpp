// Tests for the dual-recursive-bipartitioning mapper (the Scotch-style
// alternative the paper mentions in Sec. V-A).
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "mapping/bipartition.hpp"
#include "mapping/hierarchical.hpp"

namespace tlbmap {
namespace {

const Topology& harpertown() {
  static const Topology t{MachineConfig::harpertown()};
  return t;
}

TEST(Bisect, SeparatesTwoCliques) {
  // Threads 0-3 and 4-7 form two heavy cliques with light cross edges.
  CommMatrix comm(8);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      comm.add(a, b, (a / 4 == b / 4) ? 100 : 1);
    }
  }
  std::vector<ThreadId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto [left, right] = bisect_min_cut(comm, all);
  ASSERT_EQ(left.size(), 4u);
  ASSERT_EQ(right.size(), 4u);
  const int side_of_0 = std::count(left.begin(), left.end(), 0) ? 0 : 1;
  for (int t = 0; t < 4; ++t) {
    const auto& side = side_of_0 == 0 ? left : right;
    EXPECT_NE(std::find(side.begin(), side.end(), t), side.end()) << t;
  }
}

TEST(Bisect, RefinementFixesGreedySeed) {
  // Adversarial: the heaviest edge (0,1) belongs to different optimal
  // halves' counterparts. Pairing structure (0,2) (1,3) heavy, cross light;
  // plus a decoy heavy (0,1) edge. Optimal split: {0,2} | {1,3}.
  CommMatrix comm(4);
  comm.add(0, 1, 50);
  comm.add(0, 2, 60);
  comm.add(1, 3, 60);
  const auto [left, right] = bisect_min_cut(comm, {0, 1, 2, 3});
  // Cut of {0,2}|{1,3} = 50; cut of {0,1}|{2,3} = 120; cut {0,3}|{1,2}=170.
  const bool zero_left = std::count(left.begin(), left.end(), 0) > 0;
  const auto& zside = zero_left ? left : right;
  EXPECT_NE(std::find(zside.begin(), zside.end(), 2), zside.end());
}

TEST(Bisect, RejectsOddGroups) {
  CommMatrix comm(3);
  EXPECT_THROW(bisect_min_cut(comm, {0, 1, 2}), std::invalid_argument);
}

TEST(Bisect, HandlesVirtualPadding) {
  CommMatrix comm(2);
  comm.add(0, 1, 5);
  const auto [left, right] =
      bisect_min_cut(comm, {0, 1, kNoThread, kNoThread});
  EXPECT_EQ(left.size(), 2u);
  EXPECT_EQ(right.size(), 2u);
}

TEST(BipartitionMapper, ValidMapping) {
  BipartitionMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 100);
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, 8));
}

TEST(BipartitionMapper, PairsLandOnSharedL2) {
  BipartitionMapper mapper(harpertown());
  CommMatrix comm(8);
  for (int t = 0; t < 8; t += 2) comm.add(t, t + 1, 1000);
  const Mapping m = mapper.map(comm);
  for (int t = 0; t < 8; t += 2) {
    EXPECT_TRUE(harpertown().share_l2(m[static_cast<std::size_t>(t)],
                                      m[static_cast<std::size_t>(t + 1)]))
        << t;
  }
}

TEST(BipartitionMapper, QuadsLandOnSockets) {
  BipartitionMapper mapper(harpertown());
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

TEST(Bipartition, SaturatedPairSharesL2) {
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
    const Mapping m = BipartitionMapper(harpertown()).map(comm);
    EXPECT_TRUE(is_valid_mapping(m, 8)) << heavy;
    EXPECT_TRUE(harpertown().share_l2(m[2], m[5]))
        << heavy << ": t2->c" << m[2] << " t5->c" << m[5];
  }
}

TEST(BipartitionMapper, FewerThreadsThanCores) {
  BipartitionMapper mapper(harpertown());
  CommMatrix comm(6);
  comm.add(0, 1, 50);
  comm.add(2, 3, 50);
  comm.add(4, 5, 50);
  const Mapping m = mapper.map(comm);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_TRUE(is_valid_mapping(m, 8));
}

TEST(BipartitionMapper, RejectsTooManyThreads) {
  BipartitionMapper mapper(harpertown());
  EXPECT_THROW(mapper.map(CommMatrix(16)), std::invalid_argument);
}

TEST(BipartitionMapper, ComparableToHierarchicalOnRandomMatrices) {
  BipartitionMapper bipart(harpertown());
  HierarchicalMapper hier(harpertown());
  std::mt19937_64 rng(4);
  double bipart_total = 0.0, hier_total = 0.0, random_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    CommMatrix comm(8);
    for (int a = 0; a < 8; ++a) {
      for (int b = a + 1; b < 8; ++b) comm.add(a, b, rng() % 100);
    }
    bipart_total += mapping_cost(comm, bipart.map(comm), harpertown());
    hier_total += mapping_cost(comm, hier.map(comm), harpertown());
    random_total += mapping_cost(
        comm, random_mapping(8, 8, static_cast<std::uint64_t>(trial)),
        harpertown());
  }
  // Both structured mappers beat random placement on aggregate; neither
  // needs to dominate the other (the paper picked matching, Scotch-style
  // bipartitioning is "also good").
  EXPECT_LT(bipart_total, random_total);
  EXPECT_LT(hier_total, random_total);
  EXPECT_LT(bipart_total, hier_total * 1.25);
}

}  // namespace
}  // namespace tlbmap
