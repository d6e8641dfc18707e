// Greedy perfect matching baseline: sort all pairs by weight and take each
// pair whose endpoints are still free. A 1/2-approximation; exists to show
// what the exact Edmonds matching buys (ablation bench).
#pragma once

#include "mapping/matching.hpp"

namespace tlbmap {

/// Same contract as max_weight_perfect_matching (square, even N, symmetric).
MatchingResult greedy_perfect_matching(const WeightMatrix& w);

}  // namespace tlbmap
