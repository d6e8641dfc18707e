// Shared retry policy: capped attempts with exponential backoff.
//
// Generalised from the HM detector's sweep-retry loop (DESIGN.md Sec. 11):
// attempt k waits base_delay * factor^(k-1). Delays are in caller units —
// simulated cycles for the HM sweep retry, remap decisions for the online
// mapper's rollback damping — the policy never touches a clock itself.
// The delay of attempt k is a pure function of the policy and k, so a
// schedule replays bit-identically.
#pragma once

#include <cstdint>

namespace tlbmap {

struct RetryPolicy {
  /// Attempts after the initial failure before giving up. 0 disables
  /// retrying entirely (the first failure is final).
  int max_attempts = 4;
  /// Delay before the first retry, in caller units (cycles, decisions).
  /// Clamped up to 1 by delay(): a zero wait would retry in the same
  /// scheduling instant and defeat the backoff.
  std::uint64_t base_delay = 1;
  /// Multiplier applied per attempt (2 = classic doubling).
  std::uint64_t factor = 2;

  /// True when `attempt` (1-based) is within the cap.
  bool should_retry(int attempt) const {
    return attempt >= 1 && attempt <= max_attempts;
  }

  /// Backoff before 1-based retry `attempt`: base_delay * factor^(attempt-1).
  /// Saturates at the u64 ceiling instead of wrapping, so an absurd attempt
  /// count degrades to "wait forever", not "retry immediately".
  std::uint64_t delay(int attempt) const;
};

}  // namespace tlbmap
