// Maximum-weight perfect matching on complete weighted graphs.
//
// This is the algorithmic core of the paper's mapping step (Sec. V-A,
// Figure 2): vertices are threads, edge weights are communication-matrix
// entries, and the matching selects the thread pairs that maximise the
// total communication placed on shared caches. Solved exactly with Edmonds'
// blossom algorithm in its O(N^3) primal-dual ("dual variables + slack")
// form. Perfectness on complete graphs is enforced by a uniform weight
// offset large enough that any perfect matching outweighs any non-perfect
// one; the offset cancels out of the reported weight.
#pragma once

#include <cstdint>
#include <vector>

namespace tlbmap {

/// Symmetric dense weight matrix; w[i][j] is the gain of pairing i with j.
using WeightMatrix = std::vector<std::vector<std::int64_t>>;

struct MatchingResult {
  /// mate[v] = partner of v (always valid for a perfect matching).
  std::vector<int> mate;
  /// Sum of w[v][mate[v]] over matched pairs (each pair once).
  std::int64_t weight = 0;

  /// Pairs (a, b) with a < b.
  std::vector<std::pair<int, int>> pairs() const;
};

/// Exact maximum-weight perfect matching.
///
/// Requirements: `w` is square with even size >= 2, symmetric, with
/// non-negative entries (communication counts). Throws std::invalid_argument
/// otherwise. An all-zero matrix is legal: the perfectness offset makes
/// every pairing equivalent, so the result is an arbitrary valid perfect
/// matching of weight 0.
MatchingResult max_weight_perfect_matching(const WeightMatrix& w);

}  // namespace tlbmap
