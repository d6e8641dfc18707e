// Unit tests for the TLB model, including the set-restricted probe and
// set-iteration APIs the detectors depend on.
#include <set>

#include <gtest/gtest.h>

#include "sim/tlb.hpp"

namespace tlbmap {
namespace {

TlbConfig small_config() {
  return TlbConfig{/*entries=*/8, /*ways=*/2, /*miss_penalty=*/30};
}

TEST(Tlb, StartsEmpty) {
  Tlb t(small_config());
  EXPECT_EQ(t.valid_entries(), 0u);
  EXPECT_FALSE(t.lookup(3));
  EXPECT_FALSE(t.contains(3));
}

TEST(Tlb, Geometry) {
  Tlb t(small_config());
  EXPECT_EQ(t.num_sets(), 4u);
  EXPECT_EQ(t.ways(), 2u);
  EXPECT_EQ(t.capacity(), 8u);
}

TEST(Tlb, InsertThenHit) {
  Tlb t(small_config());
  t.insert(5);
  EXPECT_TRUE(t.lookup(5));
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.valid_entries(), 1u);
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb t(small_config());
  // Pages 0, 4, 8 all map to set 0 (page % 4).
  t.insert(0);
  t.insert(4);
  t.insert(8);  // evicts 0
  EXPECT_FALSE(t.contains(0));
  EXPECT_TRUE(t.contains(4));
  EXPECT_TRUE(t.contains(8));
}

TEST(Tlb, LookupRefreshesLru) {
  Tlb t(small_config());
  t.insert(0);
  t.insert(4);
  EXPECT_TRUE(t.lookup(0));  // 0 becomes MRU
  t.insert(8);               // evicts 4
  EXPECT_TRUE(t.contains(0));
  EXPECT_FALSE(t.contains(4));
}

TEST(Tlb, ContainsDoesNotRefreshLru) {
  Tlb t(small_config());
  t.insert(0);
  t.insert(4);
  EXPECT_TRUE(t.contains(0));  // must NOT touch LRU (detector probe)
  t.insert(8);                 // evicts 0, the true LRU
  EXPECT_FALSE(t.contains(0));
  EXPECT_TRUE(t.contains(4));
}

TEST(Tlb, InsertExistingRefreshesInsteadOfDuplicating) {
  Tlb t(small_config());
  t.insert(0);
  t.insert(0);
  EXPECT_EQ(t.valid_entries(), 1u);
  t.insert(4);
  t.insert(0);  // refresh
  t.insert(8);  // evicts 4
  EXPECT_TRUE(t.contains(0));
  EXPECT_FALSE(t.contains(4));
}

TEST(Tlb, InvalidateEntry) {
  Tlb t(small_config());
  t.insert(6);
  EXPECT_TRUE(t.invalidate(6));
  EXPECT_FALSE(t.contains(6));
  EXPECT_FALSE(t.invalidate(6));
}

TEST(Tlb, FlushClearsAll) {
  Tlb t(small_config());
  for (PageNum p = 0; p < 8; ++p) t.insert(p);
  t.flush();
  EXPECT_EQ(t.valid_entries(), 0u);
}

// flush() skips the work on an untouched TLB; an invalidated entry still
// marks it touched, so the flush must clear the rest of the set too.
TEST(Tlb, FlushAfterInvalidateClearsEverything) {
  Tlb t(small_config());
  t.insert(1);
  t.insert(5);  // same set
  EXPECT_TRUE(t.invalidate(1));
  t.flush();
  EXPECT_EQ(t.valid_entries(), 0u);
  EXPECT_FALSE(t.contains(5));
  for (const std::uint64_t tag : t.tags()) EXPECT_EQ(tag, kInvalidTag);
  t.flush();  // a second flush finds nothing to do
  EXPECT_EQ(t.valid_entries(), 0u);
}

TEST(Tlb, SetTagsExposesWays) {
  Tlb t(small_config());
  t.insert(1);  // set 1
  t.insert(5);  // set 1
  const auto set1 = t.set_tags(1);
  ASSERT_EQ(set1.size(), 2u);
  EXPECT_EQ(std::set<PageNum>(set1.begin(), set1.end()),
            (std::set<PageNum>{1, 5}));
  // Other sets stay empty.
  for (const std::uint64_t tag : t.set_tags(0)) EXPECT_EQ(tag, kInvalidTag);
}

TEST(Tlb, SetIndexMatchesModulo) {
  Tlb t(small_config());
  EXPECT_EQ(t.set_index(0), 0u);
  EXPECT_EQ(t.set_index(7), 3u);
  EXPECT_EQ(t.set_index(9), 1u);
}

TEST(Tlb, InvalidatedWayIsRefilledBeforeLru) {
  Tlb t(small_config());
  t.insert(1);
  t.insert(5);  // set 1 full: 1 is LRU
  EXPECT_TRUE(t.invalidate(5));
  EXPECT_EQ(t.valid_entries(), 1u);
  t.insert(9);  // takes 5's empty way, keeps 1
  EXPECT_TRUE(t.contains(1));
  EXPECT_TRUE(t.contains(9));
  t.insert(13);  // set full again: evicts the LRU page, 1
  EXPECT_FALSE(t.contains(1));
  EXPECT_TRUE(t.contains(9));
  EXPECT_TRUE(t.contains(13));
}

TEST(Tlb, RejectsBadGeometry) {
  EXPECT_THROW(Tlb(TlbConfig{0, 2}), std::invalid_argument);
  EXPECT_THROW(Tlb(TlbConfig{8, 0}), std::invalid_argument);
  EXPECT_THROW(Tlb(TlbConfig{8, 3}), std::invalid_argument);
}

// The property central to the paper's false-communication argument: an
// entry not re-touched survives at most `ways` subsequent distinct inserts
// into its set ("the relatively short life of the TLB entries").
struct TlbGeometry {
  std::size_t entries;
  std::size_t ways;
};

class TlbLifetime : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(TlbLifetime, StaleEntryEvictedAfterWaysInserts) {
  const auto [entries, ways] = GetParam();
  Tlb t(TlbConfig{entries, ways});
  const std::size_t sets = entries / ways;
  t.insert(0);  // set 0, never touched again
  // ways-1 more inserts into set 0: still resident.
  for (std::size_t k = 1; k < ways; ++k) t.insert(k * sets);
  EXPECT_TRUE(t.contains(0));
  // One more distinct page in set 0 evicts it.
  t.insert(ways * sets);
  EXPECT_FALSE(t.contains(0));
}

TEST_P(TlbLifetime, CapacityFillNoEviction) {
  const auto [entries, ways] = GetParam();
  Tlb t(TlbConfig{entries, ways});
  for (PageNum p = 0; p < entries; ++p) t.insert(p);
  EXPECT_EQ(t.valid_entries(), entries);
  for (PageNum p = 0; p < entries; ++p) {
    EXPECT_TRUE(t.contains(p)) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbLifetime,
    ::testing::Values(TlbGeometry{8, 2}, TlbGeometry{16, 4},
                      TlbGeometry{64, 4},   // the paper's TLB
                      TlbGeometry{64, 1},   // direct-mapped
                      TlbGeometry{64, 64},  // fully associative
                      TlbGeometry{256, 8}, TlbGeometry{1024, 4}),
    [](const ::testing::TestParamInfo<TlbGeometry>& info) {
      return "e" + std::to_string(info.param.entries) + "_w" +
             std::to_string(info.param.ways);
    });

}  // namespace
}  // namespace tlbmap
