// Exact maximum-weight perfect matching by bitmask dynamic programming.
//
// O(2^N * N) time and O(2^N) space — only feasible for small N, but
// unconditionally correct. The test oracle for the blossom implementation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mapping/matching.hpp"

namespace tlbmap {

/// Practical upper bound on N for the DP (2^24 doubles of state).
inline constexpr std::size_t kExactMatchingMaxVertices = 22;

/// Same contract as max_weight_perfect_matching. Throws when N exceeds
/// kExactMatchingMaxVertices.
inline MatchingResult exact_perfect_matching(const WeightMatrix& w) {
  const std::size_t n = w.size();
  if (n < 2 || n % 2 != 0) {
    throw std::invalid_argument(
        "exact_perfect_matching: need an even number of vertices >= 2");
  }
  if (n > kExactMatchingMaxVertices) {
    throw std::invalid_argument("exact_perfect_matching: too many vertices");
  }
  for (const auto& row : w) {
    if (row.size() != n) {
      throw std::invalid_argument("exact_perfect_matching: matrix not square");
    }
  }

  constexpr std::int64_t kUnset = std::numeric_limits<std::int64_t>::min();
  const std::size_t full = std::size_t{1} << n;
  // best[mask] = max weight of a perfect matching of the vertices in mask.
  std::vector<std::int64_t> best(full, kUnset);
  // choice[mask] = vertex paired with the lowest vertex of mask.
  std::vector<int> choice(full, -1);
  best[0] = 0;
  for (std::size_t mask = 1; mask < full; ++mask) {
    const int pc = std::popcount(mask);
    if (pc % 2 != 0) continue;
    const int lo = std::countr_zero(mask);
    const std::size_t without_lo = mask & (mask - 1);
    for (int v = lo + 1; v < static_cast<int>(n); ++v) {
      if ((mask >> v & 1) == 0) continue;
      const std::size_t rest = without_lo & ~(std::size_t{1} << v);
      if (best[rest] == kUnset) continue;
      const std::int64_t cand =
          best[rest] + w[static_cast<std::size_t>(lo)][static_cast<std::size_t>(v)];
      if (best[mask] == kUnset || cand > best[mask]) {
        best[mask] = cand;
        choice[mask] = v;
      }
    }
  }

  MatchingResult result;
  result.mate.assign(n, -1);
  result.weight = best[full - 1];
  std::size_t mask = full - 1;
  while (mask != 0) {
    const int lo = std::countr_zero(mask);
    const int v = choice[mask];
    result.mate[static_cast<std::size_t>(lo)] = v;
    result.mate[static_cast<std::size_t>(v)] = lo;
    mask &= ~(std::size_t{1} << lo);
    mask &= ~(std::size_t{1} << v);
  }
  return result;
}

}  // namespace tlbmap
