// Tests for the Edmonds blossom maximum-weight perfect matching, its exact
// DP oracle, and the greedy baseline.
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mapping/greedy.hpp"
#include "mapping/matching.hpp"
#include "reference_exact_matching.hpp"

namespace tlbmap {
namespace {

WeightMatrix random_matrix(int n, std::uint64_t seed, std::int64_t max_w) {
  std::mt19937_64 rng(seed);
  WeightMatrix w(static_cast<std::size_t>(n),
                 std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
  std::uniform_int_distribution<std::int64_t> dist(0, max_w);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
              dist(rng);
    }
  }
  return w;
}

void expect_perfect(const MatchingResult& r, int n) {
  ASSERT_EQ(r.mate.size(), static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    ASSERT_GE(r.mate[static_cast<std::size_t>(v)], 0) << "vertex " << v;
    ASSERT_LT(r.mate[static_cast<std::size_t>(v)], n);
    ASSERT_NE(r.mate[static_cast<std::size_t>(v)], v);
    EXPECT_EQ(r.mate[static_cast<std::size_t>(
                  r.mate[static_cast<std::size_t>(v)])],
              v)
        << "mate not involutive at " << v;
  }
}

std::int64_t weight_of(const MatchingResult& r, const WeightMatrix& w) {
  std::int64_t total = 0;
  for (int v = 0; v < static_cast<int>(r.mate.size()); ++v) {
    if (r.mate[static_cast<std::size_t>(v)] > v) {
      total += w[static_cast<std::size_t>(v)]
                [static_cast<std::size_t>(r.mate[static_cast<std::size_t>(v)])];
    }
  }
  return total;
}

TEST(Matching, TwoVertices) {
  const WeightMatrix w = {{0, 7}, {7, 0}};
  const MatchingResult r = max_weight_perfect_matching(w);
  expect_perfect(r, 2);
  EXPECT_EQ(r.weight, 7);
  EXPECT_EQ(r.mate[0], 1);
}

TEST(Matching, FourVerticesPrefersHeavyPairs) {
  // Pairing (0,1)+(2,3) = 10+10 beats (0,2)+(1,3) = 1+1 etc.
  WeightMatrix w(4, std::vector<std::int64_t>(4, 1));
  for (int i = 0; i < 4; ++i) w[i][i] = 0;
  w[0][1] = w[1][0] = 10;
  w[2][3] = w[3][2] = 10;
  const MatchingResult r = max_weight_perfect_matching(w);
  expect_perfect(r, 4);
  EXPECT_EQ(r.weight, 20);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[2], 3);
}

TEST(Matching, GreedyTrapAvoided) {
  // Greedy grabs (0,1) with weight 10 and is then forced into (2,3)=0 for a
  // total of 10; optimum is (0,2)+(1,3) = 9+9 = 18.
  WeightMatrix w(4, std::vector<std::int64_t>(4, 0));
  w[0][1] = w[1][0] = 10;
  w[0][2] = w[2][0] = 9;
  w[1][3] = w[3][1] = 9;
  const MatchingResult exact = max_weight_perfect_matching(w);
  const MatchingResult greedy = greedy_perfect_matching(w);
  EXPECT_EQ(exact.weight, 18);
  EXPECT_EQ(greedy.weight, 10);
}

TEST(Matching, AllZeroWeightsStillPerfect) {
  WeightMatrix w(8, std::vector<std::int64_t>(8, 0));
  const MatchingResult r = max_weight_perfect_matching(w);
  expect_perfect(r, 8);
  EXPECT_EQ(r.weight, 0);
}

TEST(Matching, RejectsOddSize) {
  WeightMatrix w(3, std::vector<std::int64_t>(3, 1));
  for (int i = 0; i < 3; ++i) w[i][i] = 0;
  EXPECT_THROW(max_weight_perfect_matching(w), std::invalid_argument);
}

TEST(Matching, RejectsAsymmetric) {
  WeightMatrix w(2, std::vector<std::int64_t>(2, 0));
  w[0][1] = 3;
  w[1][0] = 4;
  EXPECT_THROW(max_weight_perfect_matching(w), std::invalid_argument);
}

TEST(Matching, RejectsNegative) {
  WeightMatrix w(2, std::vector<std::int64_t>(2, 0));
  w[0][1] = w[1][0] = -1;
  EXPECT_THROW(max_weight_perfect_matching(w), std::invalid_argument);
}

TEST(Matching, LargeWeightsDoNotOverflow) {
  WeightMatrix w(8, std::vector<std::int64_t>(8, 0));
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      w[i][j] = w[j][i] = (std::int64_t{1} << 42) + i + j;
    }
  }
  const MatchingResult r = max_weight_perfect_matching(w);
  expect_perfect(r, 8);
}

TEST(ExactMatching, MatchesKnownOptimum) {
  WeightMatrix w(4, std::vector<std::int64_t>(4, 0));
  w[0][1] = w[1][0] = 10;
  w[0][2] = w[2][0] = 9;
  w[1][3] = w[3][1] = 9;
  const MatchingResult r = exact_perfect_matching(w);
  EXPECT_EQ(r.weight, 18);
}

TEST(ExactMatching, RejectsTooLarge) {
  const int n = static_cast<int>(kExactMatchingMaxVertices) + 2;
  WeightMatrix w(static_cast<std::size_t>(n),
                 std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
  EXPECT_THROW(exact_perfect_matching(w), std::invalid_argument);
}

struct FuzzParam {
  int n;
  std::int64_t max_w;
};

class MatchingFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MatchingFuzz, BlossomEqualsExactDp) {
  const auto [n, max_w] = GetParam();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const WeightMatrix w = random_matrix(n, seed * 7919 + n, max_w);
    const MatchingResult blossom = max_weight_perfect_matching(w);
    const MatchingResult exact = exact_perfect_matching(w);
    expect_perfect(blossom, n);
    EXPECT_EQ(weight_of(blossom, w), blossom.weight);
    EXPECT_EQ(blossom.weight, exact.weight)
        << "n=" << n << " max_w=" << max_w << " seed=" << seed;
  }
}

TEST_P(MatchingFuzz, GreedyNeverBeatsBlossom) {
  const auto [n, max_w] = GetParam();
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const WeightMatrix w = random_matrix(n, seed, max_w);
    EXPECT_LE(greedy_perfect_matching(w).weight,
              max_weight_perfect_matching(w).weight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatchingFuzz,
    ::testing::Values(FuzzParam{2, 100}, FuzzParam{4, 100}, FuzzParam{6, 100},
                      FuzzParam{8, 100}, FuzzParam{10, 100},
                      FuzzParam{12, 100}, FuzzParam{14, 100},
                      FuzzParam{16, 50},
                      // Heavy ties: tiny weight range forces blossoms.
                      FuzzParam{8, 2}, FuzzParam{10, 1}, FuzzParam{12, 3},
                      // Large weights: exercises the offset arithmetic.
                      FuzzParam{8, 1'000'000'000}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      return "n" + std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.max_w);
    });

TEST(Matching, PairsHelper) {
  WeightMatrix w(4, std::vector<std::int64_t>(4, 0));
  w[0][3] = w[3][0] = 5;
  w[1][2] = w[2][1] = 5;
  const auto pairs = max_weight_perfect_matching(w).pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 3}));
  EXPECT_EQ(pairs[1], (std::pair<int, int>{1, 2}));
}

}  // namespace
}  // namespace tlbmap
