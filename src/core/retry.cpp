#include "core/retry.hpp"

#include <limits>

namespace tlbmap {

namespace {

/// a * b saturating at the u64 ceiling.
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (a > kMax / b) return kMax;
  return a * b;
}

}  // namespace

std::uint64_t RetryPolicy::delay(int attempt) const {
  if (attempt < 1) attempt = 1;
  std::uint64_t d = base_delay > 0 ? base_delay : 1;
  for (int k = 1; k < attempt; ++k) d = sat_mul(d, factor);
  return d;
}

}  // namespace tlbmap
