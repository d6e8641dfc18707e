// Common base for the communication-pattern detectors. A detector is a
// MachineObserver that accumulates a CommMatrix while a workload runs and
// accounts for the cycles its own searches cost (paper Sec. VI-C).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "core/fault.hpp"
#include "detect/comm_matrix.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class Detector : public MachineObserver {
 public:
  explicit Detector(int num_threads) : matrix_(num_threads) {}

  const CommMatrix& matrix() const { return matrix_; }

  /// Number of times the detection routine actually ran (SM: sampled
  /// searches; HM: periodic sweeps).
  std::uint64_t searches() const { return searches_; }

  /// TLB misses observed (Table III's miss statistics are derived from the
  /// machine counters; this tracks what the detector itself saw).
  std::uint64_t misses_seen() const { return misses_seen_; }

  virtual std::string name() const = 0;

  /// Tally of injected faults, or null when this detector runs without an
  /// injector (the default). The pipeline publishes these as
  /// fault.injected_* counters after the detect phase.
  virtual const FaultCounters* fault_counters() const { return nullptr; }

  /// Ages the accumulated matrix (dynamic re-detection support).
  void decay_matrix(double factor) { matrix_.decay(factor); }

  /// Attaches an observability context (null detaches). At kPhases the
  /// detector publishes search/miss counters labeled with its mechanism; at
  /// kFull it additionally emits a trace instant per search and a
  /// communication-matrix snapshot every kMatrixSnapshotEvery searches.
  /// Virtual so detectors can resolve additional mechanism-specific sinks
  /// (e.g. the HM sweep's index/match counters) in the same place.
  virtual void set_observability(obs::ObsContext* obs) {
    obs_ = obs;
    search_counter_ = nullptr;
    miss_counter_ = nullptr;
    if (obs != nullptr && obs->phases()) {
      const obs::Labels labels = {{"mechanism", name()}};
      search_counter_ = &obs->metrics.counter("detector.searches", labels);
      miss_counter_ = &obs->metrics.counter("detector.misses_seen", labels);
    }
  }

 protected:
  /// Per-epoch matrix snapshot throttle (kFull level).
  static constexpr std::uint64_t kMatrixSnapshotEvery = 256;

  /// Bumps searches_ and mirrors it into the observability sinks.
  void count_search() {
    ++searches_;
    if (search_counter_ != nullptr) search_counter_->add();
    if (obs_ != nullptr && obs_->full()) {
      std::ostringstream args;
      args << "\"search\":" << searches_;
      obs_->tracer.record_instant(name() + ".search", "detector",
                                  args.str());
      if (searches_ % kMatrixSnapshotEvery == 0) {
        obs_->metrics.snapshot_matrix("comm_matrix." + name(), searches_,
                                      matrix_.upper_rows());
      }
    }
  }

  void count_miss() {
    ++misses_seen_;
    if (miss_counter_ != nullptr) miss_counter_->add();
  }

  CommMatrix matrix_;
  std::uint64_t searches_ = 0;
  std::uint64_t misses_seen_ = 0;
  obs::ObsContext* obs_ = nullptr;

 private:
  obs::Counter* search_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
};

}  // namespace tlbmap
