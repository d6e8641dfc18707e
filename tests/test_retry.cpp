// Tests for the shared RetryPolicy (DESIGN.md Sec. 11): capped attempts,
// saturating exponential backoff, and bit-identical to the HM detector's
// historical hand-rolled schedule.
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/retry.hpp"
#include "detect/hm_detector.hpp"
#include "sim/machine.hpp"

namespace tlbmap {
namespace {

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

TEST(RetryPolicy, DelayIsPureExponential) {
  RetryPolicy policy;
  policy.base_delay = 8;
  policy.factor = 2;
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
  EXPECT_GE(policy.delay(1), 1u);
}

TEST(RetryPolicy, AbsurdAttemptSaturatesInsteadOfWrapping) {
  RetryPolicy policy;
  policy.base_delay = 1000;
  policy.factor = 2;
  // 2^200 overflows u64 many times over; the delay must pin at the
  // ceiling ("wait forever"), never wrap around to a small value.
  const std::uint64_t d = policy.delay(200);
  EXPECT_EQ(d, std::numeric_limits<std::uint64_t>::max());
  EXPECT_GE(policy.delay(201), d);
}

TEST(RetryPolicy, HmSweepPolicyMatchesLegacySchedule) {
  // The HM detector's sweep-retry loop predates RetryPolicy; its adopted
  // policy must reproduce the hand-rolled cadence exactly (4 attempts,
  // base interval/8, doubling) so the fault tests stay green.
  Machine m(MachineConfig::tiny());
  HmDetectorConfig config;
  config.interval = 80000;
  config.search_cost = 0;
  HmDetector detector(m, /*num_threads=*/2, config);
  const RetryPolicy policy = detector.sweep_retry_policy();
  EXPECT_EQ(policy.max_attempts, 4);
  EXPECT_EQ(policy.factor, 2u);
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
