// Hardware-managed TLB mechanism (paper Sec. IV-B, Figure 1b).
//
// x86-style TLBs are refilled by a hardware page walker, so the OS never
// sees misses. The paper proposes a small ISA extension that lets the kernel
// read TLB contents; the kernel then periodically (every `interval` cycles,
// 10M in the paper) compares **all pairs** of TLBs and increments the
// communication matrix per matching entry.
//
// The paper's literal sweep walks every pair of TLBs set by set —
// Theta(P^2 * S * w^2) per sweep — and dominates simulator wall-clock on
// large topologies. This implementation instead gathers every occupied
// TLB's (page, thread) entries in Theta(P * S * w), sorts them by page and
// accumulates pair counts only for pages that are actually shared
// (detect/shared_pages.hpp, the grouping the StreamDetector uses too). That
// produces a bit-identical matrix: a TLB holds a page at most once, so the
// literal per-pair count is exactly the size of the two TLBs' page-set
// intersection. The literal walk is the reference that
// tests/test_detectors.cpp compares against, and bench_table1_complexity
// times it as BM_HmSweep.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "core/retry.hpp"
#include "detect/detector.hpp"
#include "sim/machine.hpp"

namespace tlbmap {

struct HmDetectorConfig {
  /// Cycles between sweeps (the paper's n = 10,000,000).
  Cycles interval = 10'000'000;
  /// Cycles one full sweep costs (paper measures 84,297 for 8 cores); the
  /// machine stalls every thread for this long, modelling the kernel-wide
  /// interruption.
  Cycles search_cost = 84'297;

  /// Throws std::invalid_argument when `interval` is 0 or a sweep costs at
  /// least one interval: the machine would then stall for longer than it
  /// runs between sweeps, and the detector would sweep on almost every
  /// access.
  void validate() const;
};

class HmDetector final : public Detector {
 public:
  HmDetector(Machine& machine, int num_threads, HmDetectorConfig config = {});

  Cycles on_access(ThreadId thread, CoreId core, VirtAddr addr,
                   PageNum page, AccessType type, bool tlb_miss,
                   Cycles now) override;
  Cycles on_tick(Cycles now) override;

  std::string name() const override { return "HM"; }
  const HmDetectorConfig& config() const { return config_; }
  const FaultCounters* fault_counters() const override {
    return fault_ ? &fault_->counters() : nullptr;
  }

  void set_observability(obs::ObsContext* obs) override;

  /// Runs one sweep immediately (exposed for tests and for the dynamic
  /// migration example, which re-detects on demand).
  void sweep();

  /// The sweep-retry schedule as the shared RetryPolicy (DESIGN.md
  /// Sec. 11): kMaxSweepRetries attempts, base interval/8, doubling —
  /// bit-identical to the hand-rolled loop this site had before the policy
  /// existed (the fault tests pin the cadence).
  RetryPolicy sweep_retry_policy() const {
    RetryPolicy policy;
    policy.max_attempts = kMaxSweepRetries;
    policy.base_delay = config_.interval / 8 > 0 ? config_.interval / 8 : 1;
    return policy;
  }

 private:
  Machine* machine_;
  HmDetectorConfig config_;
  Cycles last_sweep_ = 0;

  /// Engaged only when the machine's FaultPlan is enabled: injected sweep
  /// delays, silent skips, and failed sweeps retried under exponential
  /// backoff. Absent, on_tick draws nothing and sweeps on the plain
  /// interval grid.
  std::optional<FaultInjector> fault_;
  /// Give up on a failed sweep after this many backoff retries (the epoch
  /// is lost; detection resumes at the next interval).
  static constexpr int kMaxSweepRetries = 4;
  Cycles pending_delay_ = 0;  ///< injected delay of the next due sweep
  int retry_count_ = 0;       ///< outstanding retries of a failed sweep
  /// Earliest time on_tick does anything: the next retry of a failed sweep
  /// while one is outstanding, else last_sweep_ + interval + pending_delay_.
  Cycles due_ = 0;

  // Sweep scratch, reused so the hot path stays allocation-free after
  // warm-up: every occupied TLB's (page, thread) entries.
  std::vector<std::pair<PageNum, ThreadId>> page_entries_;

  // Observability sinks resolved once per context (null = off).
  obs::Counter* index_pages_counter_ = nullptr;
  obs::Counter* index_entries_counter_ = nullptr;
  obs::Counter* match_counter_ = nullptr;
  obs::Histogram* index_build_us_ = nullptr;
};

}  // namespace tlbmap
