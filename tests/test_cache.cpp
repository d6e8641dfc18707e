// Unit tests for the set-associative cache model.
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "sim/fast_mod.hpp"

namespace tlbmap {
namespace {

CacheConfig small_config() {
  // 4 sets x 2 ways, 64 B lines.
  return CacheConfig{/*size_bytes=*/512, /*line_size=*/64, /*ways=*/2,
                     /*latency=*/1};
}

TEST(Cache, StartsEmpty) {
  Cache c(small_config());
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_EQ(c.find(0), nullptr);
  EXPECT_EQ(c.peek(0), nullptr);
}

TEST(Cache, EmptyWayTagIsNeverALine) {
  // Empty ways hold kInvalidTag (~0), so a lookup of that line must not
  // match them, and inserting it would make a line no lookup can tell from
  // an empty way.
  Cache c(small_config());
  EXPECT_EQ(c.peek(kInvalidTag), nullptr);
  EXPECT_EQ(c.find(kInvalidTag), nullptr);
  EXPECT_FALSE(c.invalidate(kInvalidTag).has_value());
  EXPECT_THROW(c.insert(kInvalidTag, MesiState::kShared),
               std::invalid_argument);
  EXPECT_EQ(c.valid_lines(), 0u);

  // A way hint left on a way that has since been emptied misses too.
  std::size_t hint = Cache::kNoWay;
  c.insert(3, MesiState::kExclusive, hint);
  ASSERT_TRUE(c.invalidate(3).has_value());
  EXPECT_EQ(c.find(kInvalidTag, hint), nullptr);
  EXPECT_EQ(hint, Cache::kNoWay);
  EXPECT_THROW(c.insert(kInvalidTag, MesiState::kShared, hint),
               std::invalid_argument);
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, GeometryDerived) {
  Cache c(small_config());
  EXPECT_EQ(c.num_sets(), 4u);
  EXPECT_EQ(c.ways(), 2u);
}

TEST(Cache, InsertThenFind) {
  Cache c(small_config());
  EXPECT_FALSE(c.insert(17, MesiState::kExclusive).has_value());
  MesiState* state = c.find(17);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(*state, MesiState::kExclusive);
}

TEST(Cache, PeekDoesNotTouchLru) {
  Cache c(small_config());
  // Same set: addresses congruent mod 4.
  c.insert(0, MesiState::kShared);
  c.insert(4, MesiState::kShared);
  // Peek at 0 (would make it MRU if peek touched LRU).
  EXPECT_NE(c.peek(0), nullptr);
  // Insert a third line in the set: the victim must be 0 (oldest insert).
  const auto evicted = c.insert(8, MesiState::kShared);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->addr, 0u);
}

TEST(Cache, FindRefreshesLru) {
  Cache c(small_config());
  c.insert(0, MesiState::kShared);
  c.insert(4, MesiState::kShared);
  ASSERT_NE(c.find(0), nullptr);  // 0 becomes MRU
  const auto evicted = c.insert(8, MesiState::kShared);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->addr, 4u);
}

TEST(Cache, EvictionReportsState) {
  Cache c(small_config());
  c.insert(0, MesiState::kModified);
  c.insert(4, MesiState::kShared);
  const auto evicted = c.insert(8, MesiState::kShared);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->addr, 0u);
  EXPECT_EQ(evicted->state, MesiState::kModified);
}

TEST(Cache, InsertExistingUpdatesState) {
  Cache c(small_config());
  c.insert(5, MesiState::kShared);
  EXPECT_FALSE(c.insert(5, MesiState::kModified).has_value());
  EXPECT_EQ(*c.peek(5), MesiState::kModified);
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(small_config());
  c.insert(5, MesiState::kExclusive);
  const auto old = c.invalidate(5);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, MesiState::kExclusive);
  EXPECT_EQ(c.find(5), nullptr);
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, InvalidateAbsentReturnsNullopt) {
  Cache c(small_config());
  EXPECT_FALSE(c.invalidate(99).has_value());
}

TEST(Cache, InvalidatedWayIsReusedWithoutEviction) {
  Cache c(small_config());
  c.insert(0, MesiState::kShared);
  c.insert(4, MesiState::kShared);
  c.invalidate(0);
  EXPECT_FALSE(c.insert(8, MesiState::kShared).has_value());
  EXPECT_NE(c.peek(4), nullptr);
  EXPECT_NE(c.peek(8), nullptr);
}

TEST(Cache, DifferentSetsDoNotConflict) {
  Cache c(small_config());
  for (LineAddr a = 0; a < 4; ++a) c.insert(a, MesiState::kShared);
  for (LineAddr a = 0; a < 4; ++a) {
    EXPECT_NE(c.peek(a), nullptr) << "line " << a;
  }
  EXPECT_EQ(c.valid_lines(), 4u);
}

TEST(Cache, FlushEmptiesEverything) {
  Cache c(small_config());
  for (LineAddr a = 0; a < 8; ++a) c.insert(a, MesiState::kModified);
  c.flush();
  EXPECT_EQ(c.valid_lines(), 0u);
  for (LineAddr a = 0; a < 8; ++a) EXPECT_EQ(c.peek(a), nullptr);
}

// flush() skips the work on a cache untouched since construction or the
// last flush; one whose only surviving trace is an invalidated way still
// counts as touched and must come back exactly like a fresh cache.
TEST(Cache, FlushAfterInvalidateClearsEverything) {
  Cache c(small_config());
  c.insert(0, MesiState::kModified);
  c.insert(4, MesiState::kShared);  // same set (4 sets)
  c.invalidate(0);
  c.flush();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_EQ(c.peek(4), nullptr);
  // Replacement restarts from scratch, as in a never-used cache.
  Cache fresh(small_config());
  for (Cache* cache : {&c, &fresh}) {
    cache->insert(8, MesiState::kShared);
    cache->insert(12, MesiState::kShared);
    const auto evicted = cache->insert(16, MesiState::kShared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, 8u);
  }
  c.flush();
  c.flush();  // a second flush finds nothing to do
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, ForEachLineVisitsAllValid) {
  Cache c(small_config());
  c.insert(1, MesiState::kShared);
  c.insert(2, MesiState::kModified);
  c.insert(3, MesiState::kExclusive);
  std::set<LineAddr> seen;
  c.for_each_line([&](const CacheLine& l) { seen.insert(l.addr); });
  EXPECT_EQ(seen, (std::set<LineAddr>{1, 2, 3}));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{0, 64, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{512, 0, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{512, 64, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{500, 64, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{512, 48, 2, 1}), std::invalid_argument);
}

TEST(Cache, PeekMutableAllowsStateChange) {
  Cache c(small_config());
  c.insert(7, MesiState::kModified);
  MesiState* state = c.peek_mutable(7);
  ASSERT_NE(state, nullptr);
  *state = MesiState::kShared;
  EXPECT_EQ(*c.peek(7), MesiState::kShared);
}

TEST(Cache, MesiStateNames) {
  EXPECT_STREQ(to_string(MesiState::kInvalid), "I");
  EXPECT_STREQ(to_string(MesiState::kShared), "S");
  EXPECT_STREQ(to_string(MesiState::kExclusive), "E");
  EXPECT_STREQ(to_string(MesiState::kModified), "M");
}

TEST(FastMod, EqualsModuloOnEdgeAndRandomKeys) {
  const std::uint64_t max = ~std::uint64_t{0};
  std::mt19937_64 rng(42);
  for (const std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2},
                                std::uint64_t{3}, std::uint64_t{12},
                                std::uint64_t{12'288},
                                (std::uint64_t{1} << 32) + 1}) {
    const FastMod mod(d);
    EXPECT_EQ(mod.divisor(), d);
    std::vector<std::uint64_t> keys = {0, d - 1, d, max - 1, max};
    for (int i = 0; i < 1000; ++i) keys.push_back(rng());
    for (const std::uint64_t x : keys) {
      ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
  EXPECT_THROW(FastMod{0}, std::invalid_argument);
}

// Property sweep over geometries: filling a cache with exactly `capacity`
// distinct lines of the same set-distribution must never evict; one more
// line per set must evict exactly the LRU.
struct Geometry {
  std::size_t size_bytes;
  std::size_t line_size;
  std::size_t ways;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, FillWithoutEviction) {
  const auto [size, line, ways] = GetParam();
  Cache c(CacheConfig{size, line, ways, 1});
  const std::size_t capacity = c.num_sets() * c.ways();
  for (LineAddr a = 0; a < capacity; ++a) {
    EXPECT_FALSE(c.insert(a, MesiState::kShared).has_value())
        << "unexpected eviction at line " << a;
  }
  EXPECT_EQ(c.valid_lines(), capacity);
}

TEST_P(CacheGeometry, OverfillEvictsLruPerSet) {
  const auto [size, line, ways] = GetParam();
  Cache c(CacheConfig{size, line, ways, 1});
  const std::size_t sets = c.num_sets();
  const std::size_t capacity = sets * c.ways();
  for (LineAddr a = 0; a < capacity; ++a) c.insert(a, MesiState::kShared);
  // Address capacity+s maps to set s and must evict the oldest line of
  // that set, which is address s.
  for (std::size_t s = 0; s < sets; ++s) {
    const auto evicted = c.insert(capacity + s, MesiState::kShared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{512, 64, 1}, Geometry{512, 64, 2},
                      Geometry{512, 64, 8}, Geometry{4096, 64, 4},
                      Geometry{32 * 1024, 64, 4},
                      Geometry{6 * 1024 * 1024, 64, 8},
                      Geometry{1024, 32, 4}, Geometry{2048, 128, 2}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return "b" + std::to_string(info.param.size_bytes) + "_l" +
             std::to_string(info.param.line_size) + "_w" +
             std::to_string(info.param.ways);
    });

}  // namespace
}  // namespace tlbmap
