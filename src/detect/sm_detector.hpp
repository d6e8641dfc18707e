// Software-managed TLB mechanism (paper Sec. IV-A, Figure 1a).
//
// On a TLB miss the processor traps to the OS; the refill handler — besides
// loading the translation — searches every *other* core's TLB (its in-memory
// mirror) for the missed page and increments the communication matrix per
// match. To bound the overhead only one miss in `sample_threshold` runs the
// search (the paper uses 1-in-100). With set-associative TLBs only the ways
// of the page's set are compared, making each search Theta(P).
#pragma once

#include <cstdint>
#include <optional>

#include "core/fault.hpp"
#include "detect/detector.hpp"
#include "sim/machine.hpp"

namespace tlbmap {

struct SmDetectorConfig {
  /// Run the search on every `sample_threshold`-th TLB miss. 100 = the
  /// paper's 1 % sampling; 1 = monitor every miss.
  std::uint32_t sample_threshold = 100;
  /// Cycles one search costs the faulting core (paper measures 231).
  Cycles search_cost = 231;
};

class SmDetector final : public Detector {
 public:
  /// `machine` must outlive the detector; the detector reads other cores'
  /// TLBs and the thread placement through it during the run.
  SmDetector(Machine& machine, int num_threads, SmDetectorConfig config = {});

  Cycles on_access(ThreadId thread, CoreId core, VirtAddr addr,
                   PageNum page, AccessType type, bool tlb_miss,
                   Cycles now) override;
  Cycles on_tick(Cycles /*now*/) override { return 0; }

  std::string name() const override { return "SM"; }
  const SmDetectorConfig& config() const { return config_; }
  const FaultCounters* fault_counters() const override {
    return fault_ ? &fault_->counters() : nullptr;
  }

  void set_observability(obs::ObsContext* obs) override;

 private:
  Machine* machine_;
  SmDetectorConfig config_;
  std::uint32_t miss_counter_ = 0;
  obs::Counter* match_counter_ = nullptr;  ///< TLB hits found by searches
  /// Engaged only when the machine's FaultPlan is enabled; with it absent
  /// the sampled-search path is the exact pre-fault-injection code.
  std::optional<FaultInjector> fault_;
};

}  // namespace tlbmap
