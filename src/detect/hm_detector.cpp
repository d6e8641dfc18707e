#include "detect/hm_detector.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

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
  if (machine.config().fault.enabled()) {
    fault_.emplace(machine.config().fault, FaultInjector::kHmSalt);
  }
}

HmDetectorState HmDetector::state() const {
  HmDetectorState s;
  s.matrix = matrix_;
  s.searches = searches_;
  s.misses_seen = misses_seen_;
  s.last_sweep = last_sweep_;
  s.pending_delay = pending_delay_;
  s.retry_count = retry_count_;
  s.retry_at = retry_at_;
  return s;
}

void HmDetector::restore(const HmDetectorState& state) {
  if (state.matrix.size() != matrix_.size()) {
    throw std::invalid_argument(
        "HmDetector::restore: snapshot thread count mismatch");
  }
  matrix_ = state.matrix;
  searches_ = state.searches;
  misses_seen_ = state.misses_seen;
  last_sweep_ = state.last_sweep;
  pending_delay_ = state.pending_delay;
  retry_count_ = state.retry_count;
  retry_at_ = state.retry_at;
}

Cycles HmDetector::on_access(ThreadId /*thread*/, CoreId /*core*/,
                             VirtAddr /*addr*/, PageNum /*page*/,
                             AccessType /*type*/, bool tlb_miss,
                             Cycles /*now*/) {
  if (tlb_miss) count_miss();
  return 0;
}

Cycles HmDetector::on_tick(Cycles now) {
  if (fault_) return on_tick_faulty(now);
  // Figure 1b: run a sweep once `interval` cycles have passed since the
  // last one. `now` is a per-thread clock and may jitter backwards slightly
  // relative to the previous call; the early return covers that too.
  if (now < last_sweep_ + config_.interval) return 0;
  // Advance on the interval grid rather than to `now`: snapping to `now`
  // accumulates drift under sparse ticks, so sweeps would run ever later
  // than the configured cadence.
  last_sweep_ += (now - last_sweep_) / config_.interval * config_.interval;
  sweep();
  return config_.search_cost;
}

Cycles HmDetector::on_tick_faulty(Cycles now) {
  // Outstanding retry of a failed sweep: attempt again once the backoff
  // window has passed. Each attempt — failed or not — still stalls the
  // machine for search_cost (the kernel ran either way).
  const RetryPolicy retry = sweep_retry_policy();
  if (retry_count_ > 0) {
    if (now < retry_at_) return 0;
    if (fault_->fail_sweep()) {
      if (!retry.should_retry(retry_count_ + 1)) {
        // Give up: this detection epoch is lost; the regular cadence
        // resumes at the next interval boundary.
        retry_count_ = 0;
        if (obs_ != nullptr && obs_->full()) {
          obs_->tracer.record_instant("HM.sweep_abandoned", "detector", "");
        }
      } else {
        ++retry_count_;
        retry_at_ = now + retry.delay(retry_count_);
      }
      return config_.search_cost;
    }
    retry_count_ = 0;
    if (obs_ != nullptr && obs_->full()) {
      obs_->tracer.record_instant("HM.sweep_retry_ok", "detector", "");
    }
    sweep();
    return config_.search_cost;
  }

  // Same grid cadence as the faultless path, shifted by the injected delay
  // of this epoch (drawn when the previous epoch completed).
  if (now < last_sweep_ + config_.interval + pending_delay_) return 0;
  last_sweep_ += (now - last_sweep_) / config_.interval * config_.interval;
  pending_delay_ = fault_->draw_sweep_delay();
  if (fault_->skip_sweep()) return 0;  // epoch silently lost, no stall
  if (fault_->fail_sweep()) {
    // First failure: charge the attempt and schedule a backoff retry.
    retry_count_ = 1;
    retry_at_ = now + retry.delay(1);
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
  if (config_.naive_sweep) {
    sweep_naive();
  } else {
    sweep_indexed();
  }
}

void HmDetector::sweep_naive() {
  const Topology& topo = machine_->topology();
  const MemoryHierarchy& hier = machine_->hierarchy();
  std::uint64_t matches = 0;
  // All possible pairs of TLBs (the SM mechanism's locality argument does
  // not apply: nothing tells the kernel *which* TLB changed).
  for (CoreId a = 0; a < topo.num_cores(); ++a) {
    const ThreadId ta = machine_->thread_on(a);
    if (ta == kNoThread) continue;
    for (CoreId b = a + 1; b < topo.num_cores(); ++b) {
      const ThreadId tb = machine_->thread_on(b);
      if (tb == kNoThread) continue;
      const Tlb& tlb_a = hier.tlb(a);
      const Tlb& tlb_b = hier.tlb(b);
      // Same geometry on every core: walk sets in lockstep and compare only
      // within a set — Theta(S * ways^2) per pair. The SoA tag mirrors turn
      // the inner compare into a dense branch-free span scan.
      if (simd_scan_enabled()) {
        for (std::size_t set = 0; set < tlb_a.num_sets(); ++set) {
          const auto tags_b = tlb_b.set_tags(set);
          for (const std::uint64_t tag : tlb_a.set_tags(set)) {
            if (tag == kInvalidTag) continue;
            if (scan_tags(tags_b.data(), tags_b.size(), tag) >= 0) {
              matrix_.add(ta, tb);
              ++matches;
            }
          }
        }
      } else {
        for (std::size_t set = 0; set < tlb_a.num_sets(); ++set) {
          for (const TlbEntry& ea : tlb_a.set_entries(set)) {
            if (!ea.valid) continue;
            for (const TlbEntry& eb : tlb_b.set_entries(set)) {
              if (eb.valid && eb.page == ea.page) {
                matrix_.add(ta, tb);
                ++matches;
                break;
              }
            }
          }
        }
      }
    }
  }
  if (match_counter_ != nullptr) match_counter_->add(matches);
}

void HmDetector::sweep_indexed() {
  const Topology& topo = machine_->topology();
  const MemoryHierarchy& hier = machine_->hierarchy();

  std::chrono::steady_clock::time_point build_start;
  if (index_build_us_ != nullptr) {
    build_start = std::chrono::steady_clock::now();
  }

  occupied_.clear();
  for (CoreId c = 0; c < topo.num_cores(); ++c) {
    const ThreadId t = machine_->thread_on(c);
    if (t != kNoThread) occupied_.emplace_back(c, t);
  }

  // Build the shared-page groups: every page resident in >= 2 occupied
  // TLBs, with its sharer threads. A TLB holds a page at most once (one
  // set, unique within the set), so the naive per-pair match count equals
  // the pairwise intersection size — accumulating C(k, 2) pair counts per
  // k-sharer group reproduces the naive matrix bit for bit.
  group_threads_.clear();
  group_offsets_.clear();
  std::uint64_t entries = 0;
  if (occupied_.size() >= 2 && occupied_.size() <= 64) {
    // Inverted index as page -> one-word bitmask over occupied-core slots.
    page_mask_.clear();
    for (std::size_t slot = 0; slot < occupied_.size(); ++slot) {
      const Tlb& tlb = hier.tlb(occupied_[slot].first);
      if (simd_scan_enabled()) {
        // One dense pass over the whole TLB's tag mirror (set-major, the
        // same enumeration order as the per-set walk below).
        for (const std::uint64_t tag : tlb.tags()) {
          if (tag != kInvalidTag) {
            page_mask_[tag] |= std::uint64_t{1} << slot;
            ++entries;
          }
        }
      } else {
        for (std::size_t set = 0; set < tlb.num_sets(); ++set) {
          for (const TlbEntry& e : tlb.set_entries(set)) {
            if (e.valid) {
              page_mask_[e.page] |= std::uint64_t{1} << slot;
              ++entries;
            }
          }
        }
      }
    }
    for (const auto& [page, mask] : page_mask_) {
      if ((mask & (mask - 1)) == 0) continue;  // fewer than two sharers
      group_offsets_.push_back(group_threads_.size());
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(m));
        group_threads_.push_back(occupied_[slot].second);
      }
    }
  } else if (occupied_.size() > 64) {
    // Beyond one mask word: gather (page, thread) pairs and group by
    // sorting — same groups, same matrix, still linear space.
    page_entries_.clear();
    for (const auto& [core, thread] : occupied_) {
      const Tlb& tlb = hier.tlb(core);
      if (simd_scan_enabled()) {
        for (const std::uint64_t tag : tlb.tags()) {
          if (tag != kInvalidTag) page_entries_.emplace_back(tag, thread);
        }
      } else {
        for (std::size_t set = 0; set < tlb.num_sets(); ++set) {
          for (const TlbEntry& e : tlb.set_entries(set)) {
            if (e.valid) page_entries_.emplace_back(e.page, thread);
          }
        }
      }
    }
    entries = page_entries_.size();
    std::sort(page_entries_.begin(), page_entries_.end());
    std::size_t i = 0;
    while (i < page_entries_.size()) {
      std::size_t j = i + 1;
      while (j < page_entries_.size() &&
             page_entries_[j].first == page_entries_[i].first) {
        ++j;
      }
      if (j - i >= 2) {
        group_offsets_.push_back(group_threads_.size());
        for (std::size_t k = i; k < j; ++k) {
          group_threads_.push_back(page_entries_[k].second);
        }
      }
      i = j;
    }
  }
  const std::size_t num_groups = group_offsets_.size();
  group_offsets_.push_back(group_threads_.size());  // end sentinel

  if (index_build_us_ != nullptr) {
    index_build_us_->observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - build_start)
            .count());
  }
  if (index_pages_counter_ != nullptr) {
    std::uint64_t matches = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const std::uint64_t k = group_offsets_[g + 1] - group_offsets_[g];
      matches += k * (k - 1) / 2;
    }
    index_pages_counter_->add(num_groups);
    index_entries_counter_->add(entries);
    match_counter_->add(matches);
  }

  // C(k, 2) pair counts per k-sharer group, straight into the matrix.
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t lo = group_offsets_[g];
    const std::size_t hi = group_offsets_[g + 1];
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < hi; ++j) {
        matrix_.add(group_threads_[i], group_threads_[j]);
      }
    }
  }
}

}  // namespace tlbmap
