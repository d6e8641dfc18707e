// Tests for the Mapping type, baseline generators and the cost metric.
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "mapping/mapping.hpp"

namespace tlbmap {
namespace {

const Topology& harpertown() {
  static const Topology t{MachineConfig::harpertown()};
  return t;
}

TEST(Mapping, IdentityIsValid) {
  const Mapping m = identity_mapping(8);
  EXPECT_TRUE(is_valid_mapping(m, 8));
  EXPECT_EQ(m[3], 3);
}

TEST(Mapping, ValidityRejectsDuplicates) {
  EXPECT_FALSE(is_valid_mapping({0, 0}, 8));
}

TEST(Mapping, ValidityRejectsOutOfRange) {
  EXPECT_FALSE(is_valid_mapping({0, 8}, 8));
  EXPECT_FALSE(is_valid_mapping({-1, 1}, 8));
}

TEST(Mapping, ValidityAcceptsPartialUse) {
  EXPECT_TRUE(is_valid_mapping({5, 2}, 8));  // 2 threads on 8 cores
}

TEST(Mapping, RandomIsValidPermutation) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Mapping m = random_mapping(8, 8, seed);
    EXPECT_TRUE(is_valid_mapping(m, 8)) << "seed " << seed;
  }
}

TEST(Mapping, RandomFewerThreadsThanCores) {
  const Mapping m = random_mapping(3, 8, 7);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(is_valid_mapping(m, 8));
}

TEST(Mapping, RandomVariesWithSeed) {
  std::set<Mapping> seen;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    seen.insert(random_mapping(8, 8, seed));
  }
  EXPECT_GT(seen.size(), 10u);
}

TEST(Mapping, RandomDeterministicPerSeed) {
  EXPECT_EQ(random_mapping(8, 8, 3), random_mapping(8, 8, 3));
}

TEST(Mapping, RoundRobinSpreadsAcrossSockets) {
  const Mapping m = round_robin_mapping(harpertown(), 4);
  EXPECT_TRUE(is_valid_mapping(m, 8));
  // Threads alternate sockets: 0 and 2 on socket 0, 1 and 3 on socket 1.
  EXPECT_EQ(harpertown().socket_of(m[0]), 0);
  EXPECT_EQ(harpertown().socket_of(m[1]), 1);
  EXPECT_EQ(harpertown().socket_of(m[2]), 0);
  EXPECT_EQ(harpertown().socket_of(m[3]), 1);
}

TEST(Mapping, RoundRobinFullMachine) {
  const Mapping m = round_robin_mapping(harpertown(), 8);
  EXPECT_TRUE(is_valid_mapping(m, 8));
}

TEST(Mapping, CostCountsWeightedDistance) {
  CommMatrix comm(2);
  comm.add(0, 1, 10);
  // Same L2 (distance 1) vs cross-socket (distance 3).
  EXPECT_DOUBLE_EQ(mapping_cost(comm, {0, 1}, harpertown()), 10.0);
  EXPECT_DOUBLE_EQ(mapping_cost(comm, {0, 4}, harpertown()), 30.0);
}

TEST(Mapping, CostZeroForNoCommunication) {
  CommMatrix comm(4);
  EXPECT_DOUBLE_EQ(mapping_cost(comm, {0, 2, 4, 6}, harpertown()), 0.0);
}

TEST(Mapping, WeightClampKeepsOrderAndFitsSums) {
  const WeightClamp clamp(4096, 46);
  const std::int64_t ceiling = clamp.ceiling();
  // n^2 weights times the hop count stay within half of int64.
  EXPECT_LE(static_cast<double>(ceiling) * 2 * 4096.0 * 4096.0 * 46,
            static_cast<double>(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(clamp(0), 0);
  EXPECT_EQ(clamp(12345), 12345);
  EXPECT_EQ(clamp(static_cast<std::uint64_t>(ceiling)), ceiling);
  EXPECT_EQ(clamp(static_cast<std::uint64_t>(ceiling) + 1), ceiling);
  EXPECT_EQ(clamp(CommMatrix::kCounterMax), ceiling);
  // Degenerate sizes still pass small counts through.
  EXPECT_EQ(WeightClamp(0, 0)(7), 7);
  EXPECT_GE(WeightClamp(std::numeric_limits<int>::max(), 1000).ceiling(), 1);
}

TEST(Mapping, ToStringFormat) {
  EXPECT_EQ(to_string(Mapping{2, 0}), "t0->c2 t1->c0");
}

}  // namespace
}  // namespace tlbmap
