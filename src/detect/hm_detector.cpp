#include "detect/hm_detector.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "detect/shared_pages.hpp"
#include "sim/scan.hpp"

namespace tlbmap {

void HmDetectorConfig::validate() const {
  if (interval == 0) {
    throw std::invalid_argument("HmDetector: interval must be >= 1");
  }
  if (search_cost >= interval) {
    throw std::invalid_argument(
        "HmDetector: search_cost must be below interval");
  }
}

HmDetector::HmDetector(Machine& machine, int num_threads,
                       HmDetectorConfig config)
    : Detector(num_threads), machine_(&machine), config_(config) {
  config_.validate();
  due_ = config_.interval;
  if (machine.config().fault.enabled()) {
    fault_.emplace(machine.config().fault, FaultInjector::kHmSalt);
  }
}

Cycles HmDetector::on_access(ThreadId /*thread*/, CoreId /*core*/,
                             VirtAddr /*addr*/, PageNum /*page*/,
                             AccessType /*type*/, bool tlb_miss,
                             Cycles /*now*/) {
  if (tlb_miss) count_miss();
  return 0;
}

Cycles HmDetector::on_tick(Cycles now) {
  // Figure 1b: nothing runs until the next sweep (or the retry of a failed
  // one) is due. `now` is a per-thread clock and may jitter backwards
  // slightly relative to the previous call; the early return covers that
  // too.
  if (now < due_) return 0;
  if (retry_count_ > 0) {
    // Outstanding retry of a failed sweep (only a fault plan fails one).
    // Each attempt — failed or not — still stalls the machine for
    // search_cost (the kernel ran either way).
    const RetryPolicy retry = sweep_retry_policy();
    const bool failed = fault_->fail_sweep();
    if (failed && retry.should_retry(retry_count_ + 1)) {
      ++retry_count_;
      due_ = now + retry.delay(retry_count_);
      return config_.search_cost;
    }
    // The retry swept, or this detection epoch is given up as lost; either
    // way the regular cadence resumes at the next interval boundary.
    retry_count_ = 0;
    due_ = last_sweep_ + config_.interval + pending_delay_;
    if (obs_ != nullptr && obs_->full()) {
      obs_->tracer.record_instant(
          failed ? "HM.sweep_abandoned" : "HM.sweep_retry_ok", "detector",
          "");
    }
    if (!failed) sweep();
    return config_.search_cost;
  }

  // Advance on the interval grid rather than to `now`: snapping to `now`
  // accumulates drift under sparse ticks, so sweeps would run ever later
  // than the configured cadence. A fault plan shifts the next epoch by an
  // injected delay; without one the delay is 0.
  last_sweep_ += (now - last_sweep_) / config_.interval * config_.interval;
  pending_delay_ = fault_ ? fault_->draw_sweep_delay() : 0;
  due_ = last_sweep_ + config_.interval + pending_delay_;
  if (fault_ && fault_->skip_sweep()) return 0;  // epoch lost, no stall
  if (fault_ && fault_->fail_sweep()) {
    // First failure: charge the attempt and schedule a backoff retry.
    retry_count_ = 1;
    due_ = now + sweep_retry_policy().delay(1);
    if (obs_ != nullptr && obs_->full()) {
      obs_->tracer.record_instant("HM.sweep_failed", "detector", "");
    }
    return config_.search_cost;
  }
  sweep();
  return config_.search_cost;
}

void HmDetector::set_observability(obs::ObsContext* obs) {
  Detector::set_observability(obs);
  index_pages_counter_ = nullptr;
  index_entries_counter_ = nullptr;
  match_counter_ = nullptr;
  index_build_us_ = nullptr;
  if (obs != nullptr && obs->phases()) {
    const obs::Labels labels = {{"mechanism", name()}};
    index_pages_counter_ =
        &obs->metrics.counter("detector.index_pages", labels);
    index_entries_counter_ =
        &obs->metrics.counter("detector.index_entries", labels);
    match_counter_ = &obs->metrics.counter("detector.matches", labels);
    index_build_us_ =
        &obs->metrics.histogram("detector.index_build_us", labels);
  }
}

void HmDetector::sweep() {
  count_search();
  const Topology& topo = machine_->topology();
  const MemoryHierarchy& hier = machine_->hierarchy();

  std::chrono::steady_clock::time_point build_start;
  if (index_build_us_ != nullptr) {
    build_start = std::chrono::steady_clock::now();
  }

  // Gather every occupied TLB's (page, thread) entries and sort them by
  // page. A TLB holds a page at most once (one set, unique within the set),
  // so each pair appears at most once and add_shared_pages reproduces the
  // literal per-pair intersection counts bit for bit.
  page_entries_.clear();
  for (CoreId c = 0; c < topo.num_cores(); ++c) {
    const ThreadId thread = machine_->thread_on(c);
    if (thread == kNoThread) continue;
    for (const std::uint64_t tag : hier.tlb(c).tags()) {
      if (tag != kInvalidTag) page_entries_.emplace_back(tag, thread);
    }
  }
  std::sort(page_entries_.begin(), page_entries_.end());

  if (index_build_us_ != nullptr) {
    index_build_us_->observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - build_start)
            .count());
  }
  const SharedPageCounts counts = add_shared_pages(page_entries_, matrix_);
  if (index_pages_counter_ != nullptr) {
    index_pages_counter_->add(counts.pages);
    index_entries_counter_->add(page_entries_.size());
    match_counter_->add(counts.matches);
  }
}

}  // namespace tlbmap
