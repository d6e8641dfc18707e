// Tests for the communication matrix and its accuracy metrics.
#include <limits>

#include <gtest/gtest.h>

#include "detect/comm_matrix.hpp"

namespace tlbmap {
namespace {

TEST(CommMatrix, StartsZero) {
  CommMatrix m(4);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.max(), 0u);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) EXPECT_EQ(m.at(a, b), 0u);
  }
}

TEST(CommMatrix, AddIsSymmetric) {
  CommMatrix m(4);
  m.add(1, 3, 5);
  EXPECT_EQ(m.at(1, 3), 5u);
  EXPECT_EQ(m.at(3, 1), 5u);
  EXPECT_EQ(m.total(), 5u);
}

TEST(CommMatrix, SelfCommunicationIgnored) {
  CommMatrix m(4);
  m.add(2, 2, 100);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.at(2, 2), 0u);
}

TEST(CommMatrix, AddAccumulates) {
  CommMatrix m(4);
  m.add(0, 1);
  m.add(1, 0, 2);
  EXPECT_EQ(m.at(0, 1), 3u);
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 3u);
  EXPECT_EQ(row[1], 0u);
}

TEST(CommMatrix, BoundsChecked) {
  CommMatrix m(4);
  EXPECT_THROW(m.add(0, 4), std::out_of_range);
  EXPECT_THROW(m.add(-1, 2), std::out_of_range);
  EXPECT_THROW(m.at(4, 0), std::out_of_range);
  EXPECT_THROW(m.row(4), std::out_of_range);
  EXPECT_THROW(m.row(-1), std::out_of_range);
  EXPECT_THROW(CommMatrix(0), std::invalid_argument);
}

TEST(CommMatrix, MaxAndNormalized) {
  CommMatrix m(3);
  m.add(0, 1, 10);
  m.add(1, 2, 4);
  EXPECT_EQ(m.max(), 10u);
  EXPECT_DOUBLE_EQ(m.normalized(1, 2), 0.4);
  EXPECT_DOUBLE_EQ(m.normalized(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.normalized(0, 2), 0.0);
}

TEST(CommMatrix, NormalizedAllZeroSafe) {
  CommMatrix m(3);
  EXPECT_EQ(m.normalized(0, 1), 0.0);
}

TEST(CommMatrix, PlusEquals) {
  CommMatrix a(3), b(3);
  a.add(0, 1, 2);
  b.add(0, 1, 3);
  b.add(1, 2, 7);
  a += b;
  EXPECT_EQ(a.at(0, 1), 5u);
  EXPECT_EQ(a.at(1, 2), 7u);
  CommMatrix wrong(4);
  EXPECT_THROW(a += wrong, std::invalid_argument);
}

TEST(CommMatrix, Decay) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.decay(0.5);
  EXPECT_EQ(m.at(0, 1), 50u);
  m.decay(0.0);
  EXPECT_EQ(m.at(0, 1), 0u);
}

TEST(CommMatrix, DecayRoundsToNearest) {
  CommMatrix m(3);
  m.add(0, 1, 3);
  m.add(1, 2, 1);
  m.decay(0.6);
  // 3 * 0.6 = 1.8 rounds to 2 and 1 * 0.6 = 0.6 rounds to 1 — truncation
  // would bias both down and erase the small-but-real edge in one epoch.
  EXPECT_EQ(m.at(0, 1), 2u);
  EXPECT_EQ(m.at(1, 2), 1u);
  EXPECT_EQ(m.max(), 2u);
}

TEST(CommMatrix, DecayTiesRoundTowardZero) {
  // At the default ageing factor 0.5, odd cells land exactly on .5: ties
  // go toward zero so every nonzero cell strictly shrinks (rounding ties
  // up would keep a weight-1 edge alive forever).
  CommMatrix m(3);
  m.add(0, 1, 5);
  m.add(1, 2, 1);
  m.decay(0.5);
  EXPECT_EQ(m.at(0, 1), 2u);
  EXPECT_EQ(m.at(1, 2), 0u);
}

TEST(CommMatrix, CounterSaturatesAtMax) {
  // A wrap at 2^64 would invert the hottest edge into the coldest; the
  // counters saturate instead (DESIGN.md Sec. 11).
  CommMatrix m(3);
  m.add(0, 1, CommMatrix::kCounterMax - 5);
  m.add(0, 1, 100);  // would wrap without saturation
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  m.add(0, 1, 1);  // already saturated: stays pinned
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  EXPECT_EQ(m.max(), CommMatrix::kCounterMax);

  // operator+= saturates too.
  CommMatrix a(3), b(3);
  a.add(0, 1, CommMatrix::kCounterMax - 1);
  b.add(0, 1, 7);
  a += b;
  EXPECT_EQ(a.at(0, 1), CommMatrix::kCounterMax);

  // Decay of a saturated cell stays in range (no double->u64 overflow UB).
  m.decay(1.0);
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  m.decay(0.5);
  EXPECT_LT(m.at(0, 1), CommMatrix::kCounterMax);
}

TEST(CommMatrix, DecayRejectsNonFiniteFactor) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.decay(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(m.at(0, 1), 0u);  // NaN treated as 0: reset, never poisoned
  m.add(0, 1, 100);
  m.decay(-2.0);
  EXPECT_EQ(m.at(0, 1), 0u);
}

TEST(CommMatrixHealth, ClassifiesDegenerateShapes) {
  CommMatrix empty(4);
  EXPECT_TRUE(empty.health().empty);
  EXPECT_TRUE(empty.health().degenerate());
  EXPECT_STREQ(empty.health().describe(), "empty");

  CommMatrix uniform(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) uniform.add(a, b, 9);
  }
  EXPECT_TRUE(uniform.health().uniform);
  EXPECT_TRUE(uniform.health().degenerate());
  EXPECT_STREQ(uniform.health().describe(), "uniform");

  CommMatrix ok(4);
  ok.add(0, 1, 10);
  ok.add(2, 3, 4);
  EXPECT_FALSE(ok.health().degenerate());
  EXPECT_STREQ(ok.health().describe(), "ok");

  CommMatrix saturated(3);
  saturated.add(0, 1, CommMatrix::kCounterMax);
  saturated.add(1, 2, 5);
  EXPECT_TRUE(saturated.health().saturated);
  EXPECT_FALSE(saturated.health().degenerate());  // still mappable signal
  EXPECT_STREQ(saturated.health().describe(), "saturated");

  // A 1x1 matrix has no pairs at all: empty, never uniform.
  CommMatrix one(1);
  EXPECT_TRUE(one.health().empty);
  EXPECT_FALSE(one.health().uniform);
}

TEST(CommMatrix, MaxTracksAllMutations) {
  CommMatrix m(3);
  m.add(0, 1, 10);
  m.add(1, 2, 4);
  EXPECT_EQ(m.max(), 10u);
  m.decay(0.25);  // 10 -> 2 (2.5 ties toward zero), 4 -> 1
  EXPECT_EQ(m.max(), 2u);
  CommMatrix other(3);
  other.add(1, 2, 20);
  m += other;
  EXPECT_EQ(m.max(), 21u);
}

TEST(CommMatrix, PairsByWeightOrdered) {
  CommMatrix m(4);
  m.add(0, 1, 1);
  m.add(2, 3, 9);
  m.add(0, 3, 5);
  const auto pairs = m.pairs_by_weight();
  ASSERT_EQ(pairs.size(), 6u);  // all pairs of 4 threads
  EXPECT_EQ(pairs[0], (std::pair<ThreadId, ThreadId>{2, 3}));
  EXPECT_EQ(pairs[1], (std::pair<ThreadId, ThreadId>{0, 3}));
  EXPECT_EQ(pairs[2], (std::pair<ThreadId, ThreadId>{0, 1}));
}

TEST(CommMatrix, HeatmapShapeAndShading) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.add(1, 2, 1);
  const std::string art = m.heatmap();
  // 1 header + 3 rows.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  // The strongest pair renders with the darkest glyph.
  EXPECT_NE(art.find('@'), std::string::npos);
  // Diagonal stays blank: row for thread 0 has a blank at column 0.
  EXPECT_EQ(art.find('!'), std::string::npos);
}

TEST(CommMatrix, CosineIdenticalIsOne) {
  CommMatrix a(4);
  a.add(0, 1, 3);
  a.add(2, 3, 4);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, a), 1.0, 1e-12);
}

TEST(CommMatrix, CosineScaleInvariant) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 3);
  a.add(2, 3, 4);
  b.add(0, 1, 30);
  b.add(2, 3, 40);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, b), 1.0, 1e-12);
}

TEST(CommMatrix, CosineOrthogonalIsZero) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 5);
  b.add(2, 3, 5);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, b), 0.0, 1e-12);
}

TEST(CommMatrix, CosineEmptySafe) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 5);
  EXPECT_EQ(CommMatrix::cosine_similarity(a, b), 0.0);
  EXPECT_EQ(CommMatrix::cosine_similarity(b, b), 0.0);
}

TEST(CommMatrix, RankCorrelationPerfect) {
  CommMatrix a(4), b(4);
  int w = 1;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      a.add(i, j, static_cast<std::uint64_t>(w));
      b.add(i, j, static_cast<std::uint64_t>(w * 10));
      ++w;
    }
  }
  EXPECT_NEAR(CommMatrix::rank_correlation(a, b), 1.0, 1e-12);
}

TEST(CommMatrix, RankCorrelationInverted) {
  CommMatrix a(4), b(4);
  int w = 1;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      a.add(i, j, static_cast<std::uint64_t>(w));
      b.add(i, j, static_cast<std::uint64_t>(100 - w));
      ++w;
    }
  }
  EXPECT_NEAR(CommMatrix::rank_correlation(a, b), -1.0, 1e-12);
}

TEST(CommMatrix, SizeMismatchThrows) {
  CommMatrix a(4), b(6);
  EXPECT_THROW(CommMatrix::cosine_similarity(a, b), std::invalid_argument);
  EXPECT_THROW(CommMatrix::rank_correlation(a, b), std::invalid_argument);
}

// Manycore accumulator audit (N >= 256): per-cell counters saturate, but
// total() sums ~N^2/2 of them — at 256 threads, 32640 near-max cells would
// wrap a naive u64 sum ~16k times and could land anywhere, including on a
// tiny value that misreports a white-hot matrix as idle. total() must
// saturate instead.
TEST(CommMatrix, TotalSaturatesAtManycoreScale) {
  const int n = 256;
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      m.add(a, b, CommMatrix::kCounterMax - 3);
    }
  }
  EXPECT_EQ(m.total(), CommMatrix::kCounterMax);
  EXPECT_EQ(m.max(), CommMatrix::kCounterMax - 3);
}

// Below the saturation point the sum stays exact — saturation is a ceiling,
// not a rescale.
TEST(CommMatrix, TotalExactWhenFarFromMax) {
  const int n = 256;
  CommMatrix m(n);
  std::uint64_t expected = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const std::uint64_t w = static_cast<std::uint64_t>(a + b + 1);
      m.add(a, b, w);
      expected += w;
    }
  }
  EXPECT_EQ(m.total(), expected);
}

}  // namespace
}  // namespace tlbmap
