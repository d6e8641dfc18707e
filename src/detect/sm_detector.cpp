#include "detect/sm_detector.hpp"

namespace tlbmap {

SmDetector::SmDetector(Machine& machine, int num_threads,
                       SmDetectorConfig config)
    : Detector(num_threads), machine_(&machine), config_(config) {
  if (machine.config().fault.enabled()) {
    fault_.emplace(machine.config().fault, FaultInjector::kSmSalt);
  }
}

void SmDetector::set_observability(obs::ObsContext* obs) {
  Detector::set_observability(obs);
  match_counter_ = nullptr;
  if (obs != nullptr && obs->phases()) {
    match_counter_ =
        &obs->metrics.counter("detector.matches", {{"mechanism", name()}});
  }
}

Cycles SmDetector::on_access(ThreadId thread, CoreId core,
                             VirtAddr /*addr*/, PageNum page,
                             AccessType /*type*/, bool tlb_miss,
                             Cycles /*now*/) {
  if (!tlb_miss) return 0;
  count_miss();
  // Figure 1a: below the threshold, just count the miss and return.
  if (++miss_counter_ < config_.sample_threshold) return 0;
  miss_counter_ = 0;
  if (fault_) {
    // Dropped before the search routine even starts: the sampled entry is
    // lost, no search runs and no cycles are charged.
    if (fault_->drop_sample()) return 0;
    // The detection instruction fails: the OS pays for the search but the
    // comparison yields nothing.
    if (fault_->fail_search()) {
      count_search();
      return config_.search_cost;
    }
    // A corrupted mirror entry: the search runs against a nearby-but-wrong
    // page, adding noise (usually zero matches) to the matrix.
    if (fault_->corrupt_sample()) page = fault_->perturb_page(page);
  }
  count_search();
  // Search every other TLB for the missed page. Tlb::contains probes only
  // the page's set, so the whole sweep is Theta(P * associativity).
  const Topology& topo = machine_->topology();
  std::uint64_t matches = 0;
  for (CoreId other = 0; other < topo.num_cores(); ++other) {
    if (other == core) continue;
    const ThreadId other_thread = machine_->thread_on(other);
    if (other_thread == kNoThread) continue;
    if (machine_->hierarchy().tlb(other).contains(page)) {
      matrix_.add(thread, other_thread);
      ++matches;
    }
  }
  if (match_counter_ != nullptr && matches > 0) match_counter_->add(matches);
  return config_.search_cost;
}

}  // namespace tlbmap
