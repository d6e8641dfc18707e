// Tests for the shared RetryPolicy (DESIGN.md Sec. 16): capped attempts,
// jittered exponential backoff, deterministic under a fixed seed, and
// bit-identical to the HM detector's historical hand-rolled schedule.
#include <cstdint>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/retry.hpp"
#include "detect/hm_detector.hpp"
#include "sim/machine.hpp"

namespace tlbmap {
namespace {

TEST(RetryPolicy, ValidateRejectsBadShapes) {
  RetryPolicy ok;
  EXPECT_NO_THROW(ok.validate());

  RetryPolicy negative_cap;
  negative_cap.max_attempts = -1;
  EXPECT_THROW(negative_cap.validate(), std::invalid_argument);

  RetryPolicy zero_factor;
  zero_factor.factor = 0;
  EXPECT_THROW(zero_factor.validate(), std::invalid_argument);

  RetryPolicy wild_jitter;
  wild_jitter.jitter = 1.5;
  EXPECT_THROW(wild_jitter.validate(), std::invalid_argument);
  wild_jitter.jitter = -0.1;
  EXPECT_THROW(wild_jitter.validate(), std::invalid_argument);
}

TEST(RetryPolicy, ShouldRetryCapsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_FALSE(policy.should_retry(0));  // attempts are 1-based
  EXPECT_TRUE(policy.should_retry(1));
  EXPECT_TRUE(policy.should_retry(3));
  EXPECT_FALSE(policy.should_retry(4));

  RetryPolicy disabled;
  disabled.max_attempts = 0;
  EXPECT_FALSE(disabled.should_retry(1));
}

TEST(RetryPolicy, ZeroJitterIsPureExponential) {
  RetryPolicy policy;
  policy.base_delay = 8;
  policy.factor = 2;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.delay(1), 8u);
  EXPECT_EQ(policy.delay(2), 16u);
  EXPECT_EQ(policy.delay(3), 32u);
  EXPECT_EQ(policy.delay(4), 64u);
}

TEST(RetryPolicy, ZeroBaseDelayClampsToOne) {
  // A zero wait would retry in the same scheduling instant and defeat the
  // backoff entirely.
  RetryPolicy policy;
  policy.base_delay = 0;
  policy.jitter = 0.0;
  EXPECT_GE(policy.delay(1), 1u);
}

TEST(RetryPolicy, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.base_delay = 100;
  policy.factor = 2;
  policy.jitter = 0.5;
  policy.seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const std::uint64_t pure =
        100ull * (1ull << static_cast<unsigned>(attempt - 1));
    const std::uint64_t d = policy.delay(attempt);
    EXPECT_GE(d, pure) << "attempt " << attempt;
    EXPECT_LE(d, pure + pure / 2) << "attempt " << attempt;
  }
}

TEST(RetryPolicy, JitterIsDeterministicPerSeedAndAttempt) {
  RetryPolicy a;
  a.base_delay = 64;
  a.jitter = 0.9;
  a.seed = 7;
  RetryPolicy b = a;
  // Same policy -> same schedule, call after call (pure function of
  // (policy, attempt) — no hidden generator state).
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(a.delay(attempt), b.delay(attempt));
    EXPECT_EQ(a.delay(attempt), a.delay(attempt));
  }
  // A different seed must move at least one attempt's jitter share.
  RetryPolicy other = a;
  other.seed = 8;
  bool any_different = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    if (other.delay(attempt) != a.delay(attempt)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, AbsurdAttemptSaturatesInsteadOfWrapping) {
  RetryPolicy policy;
  policy.base_delay = 1000;
  policy.factor = 2;
  policy.jitter = 0.0;
  // 2^200 overflows u64 many times over; the delay must pin at the
  // ceiling ("wait forever"), never wrap around to a small value.
  const std::uint64_t d = policy.delay(200);
  EXPECT_EQ(d, std::numeric_limits<std::uint64_t>::max());
  EXPECT_GE(policy.delay(201), d);
}

TEST(RetryPolicy, HmSweepPolicyMatchesLegacySchedule) {
  // The HM detector's sweep-retry loop predates RetryPolicy; its adopted
  // policy must reproduce the hand-rolled cadence exactly (4 attempts,
  // base interval/8, doubling, no jitter) so the fault tests stay green.
  Machine m(MachineConfig::tiny());
  HmDetectorConfig config;
  config.interval = 80000;
  config.search_cost = 0;
  HmDetector detector(m, /*num_threads=*/2, config);
  const RetryPolicy policy = detector.sweep_retry_policy();
  EXPECT_EQ(policy.max_attempts, 4);
  EXPECT_EQ(policy.factor, 2u);
  EXPECT_EQ(policy.jitter, 0.0);
  EXPECT_EQ(policy.delay(1), 80000u / 8);
  EXPECT_EQ(policy.delay(2), 80000u / 4);
  EXPECT_EQ(policy.delay(3), 80000u / 2);
  EXPECT_EQ(policy.delay(4), 80000u);

  // Tiny intervals clamp the base up to one cycle rather than zero.
  HmDetectorConfig small;
  small.interval = 4;
  small.search_cost = 0;
  HmDetector tight(m, /*num_threads=*/2, small);
  EXPECT_GE(tight.sweep_retry_policy().delay(1), 1u);
}

}  // namespace
}  // namespace tlbmap
