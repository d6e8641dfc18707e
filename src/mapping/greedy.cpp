#include "mapping/greedy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace tlbmap {

MatchingResult greedy_perfect_matching(const WeightMatrix& w) {
  const std::size_t n = w.size();
  if (n < 2 || n % 2 != 0) {
    throw std::invalid_argument(
        "greedy_perfect_matching: need an even number of vertices >= 2");
  }
  struct Pair {
    int a, b;
    std::int64_t weight;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (int a = 0; a < static_cast<int>(n); ++a) {
    if (w[static_cast<std::size_t>(a)].size() != n) {
      throw std::invalid_argument("greedy_perfect_matching: not square");
    }
    for (int b = a + 1; b < static_cast<int>(n); ++b) {
      pairs.push_back(
          {a, b, w[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& x, const Pair& y) {
                     return x.weight > y.weight;
                   });
  MatchingResult result;
  result.mate.assign(n, -1);
  for (const Pair& p : pairs) {
    if (result.mate[static_cast<std::size_t>(p.a)] == -1 &&
        result.mate[static_cast<std::size_t>(p.b)] == -1) {
      result.mate[static_cast<std::size_t>(p.a)] = p.b;
      result.mate[static_cast<std::size_t>(p.b)] = p.a;
      result.weight += p.weight;
    }
  }
  return result;
}

}  // namespace tlbmap
