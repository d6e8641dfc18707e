// Online (dynamic) thread mapping — the paper's future work, end to end.
//
// OnlineMapper attaches to a run as both the detector hook and the
// migration policy: the software-managed TLB mechanism accumulates the
// communication matrix while the application executes, and every
// `remap_every_barriers` barriers the hierarchical matcher is re-run on the
// current matrix; if the best placement changed, the threads migrate at
// that barrier. The matrix is aged (multiplicative decay) at each remap so
// old phases stop dominating — the matrix-level analogue of the TLB's own
// entry lifetime.
//
// Since PR 10 the mapper is self-stabilizing (DESIGN.md Sec. 17): a
// PhaseDetector tracks phase epochs from matrix drift and miss-rate
// deltas, every migration opens a canary transaction that prices the
// realized post-move cost against a phase-anchored baseline from the
// machine's live counters, a regression rolls the threads back to the
// recorded pre-move placement, and repeated rollbacks within one phase
// back off exponentially (RetryPolicy) so a noisy phase cannot cause a
// migration storm.
#pragma once

#include <memory>
#include <optional>

#include "core/fault.hpp"
#include "detect/phase_detector.hpp"
#include "detect/sm_detector.hpp"
#include "mapping/hierarchical.hpp"
#include "sim/machine.hpp"

namespace tlbmap {

struct OnlineMapperConfig {
  /// Consider remapping after every this many barriers. 0 = never remap
  /// (the never-migrate control of the churn differential).
  int remap_every_barriers = 4;
  /// Matrix ageing factor applied at each remap decision.
  double decay = 0.5;
  /// Skip remapping while the matrix holds fewer total events than this
  /// (avoids thrashing on startup noise).
  std::uint64_t min_matrix_total = 32;
  /// Hysteresis: migrate only when the candidate placement's communication
  /// cost (under the current matrix) is at least this much lower than the
  /// current placement's. 0.15 = candidate must be 15 % better. Guards
  /// against oscillating between near-tie matchings of a noisy matrix.
  double improvement_threshold = 0.15;
  /// After a migration, sit out this many remap decisions before migrating
  /// again. Second oscillation guard, for inputs noisy enough (e.g. under
  /// matrix fault injection) that single-decision hysteresis is beaten by
  /// two alternating "15 % better" illusions. Default 1 (PR 10): one aged
  /// decision window must re-confirm the pattern before the next move —
  /// measured on the phase-churn workloads as the smallest value that
  /// stops alternating-illusion storms without delaying convergence on
  /// stable patterns. 0 restores the historical always-eligible behaviour
  /// (reachable via --migration-cooldown on the CLI).
  int migration_cooldown = 1;
  /// Canary transaction length: after a migration, realized cost is
  /// measured over this many barriers and compared against the
  /// phase-anchored baseline. 0 disables canary windows (and with them
  /// rollback) entirely — the pre-PR-10 commit-blind behaviour.
  int canary_barriers = 2;
  /// Rollback trigger: the canary window's realized cost rate — simulated
  /// cycles per access, which prices the stall/locality impact of a
  /// placement directly (coherence *counts* barely move when only the
  /// distance of the traffic changes) — exceeding
  /// baseline * (1 + regression_threshold) reverts to the recorded
  /// pre-move placement.
  double regression_threshold = 0.25;
  /// When false, canary windows still measure and publish verdicts but a
  /// regression is never acted on (the rollback-disabled arm of the churn
  /// differential; --no-rollback on the CLI).
  bool rollback = true;
  /// Phase-epoch detection over the clean (un-decayed, fault-free) matrix
  /// plus per-thread miss-rate windows.
  PhaseDetectorConfig phase{};
  SmDetectorConfig detector{/*sample_threshold=*/10, /*search_cost=*/231};

  /// Throws std::invalid_argument on out-of-range knobs (decay outside
  /// (0, 1], negative thresholds/counts, bad sub-configs) — the structured
  /// validation surface the CLI reports through.
  void validate() const;
};

class OnlineMapper final : public MachineObserver, public MigrationPolicy {
 public:
  /// `machine` must outlive the mapper; `initial` is the starting placement
  /// (also what Machine::RunConfig::thread_to_core should be set to).
  /// Throws std::invalid_argument when `config` fails validate().
  OnlineMapper(Machine& machine, int num_threads, Mapping initial,
               OnlineMapperConfig config = {});

  // MachineObserver: forward to the embedded SM detector and the phase
  // detector's miss-rate windows.
  Cycles on_access(ThreadId thread, CoreId core, VirtAddr addr,
                   PageNum page, AccessType type, bool tlb_miss,
                   Cycles now) override;
  Cycles on_tick(Cycles /*now*/) override { return 0; }

  // MigrationPolicy: `stats` prices the canary windows.
  std::vector<CoreId> on_barrier(int barrier_index, Cycles now,
                                 const MachineStats& stats) override;

  const CommMatrix& matrix() const { return detector_.matrix(); }
  const Mapping& current_mapping() const { return current_; }
  int migrations() const { return migrations_; }
  int remap_decisions() const { return remap_decisions_; }
  /// Decisions where the matrix was degenerate (empty/uniform) and the
  /// mapper fell back to the previous placement instead of remapping.
  int degraded_decisions() const { return degraded_decisions_; }
  /// Canary windows whose realized cost regressed past the threshold and
  /// were reverted to the recorded pre-move placement.
  int rollbacks() const { return rollbacks_; }
  /// Canary windows whose migration survived its measurement window.
  int canary_commits() const { return canary_commits_; }
  /// Remap decisions skipped under post-rollback exponential damping.
  int backoff_skips() const { return backoff_skips_; }
  /// Phase epochs the phase detector has emitted so far.
  std::uint64_t phase_epochs() const { return phase_.epoch(); }
  /// Injected-fault tally of the mapper's own matrix-noise injector (null
  /// when the plan has no matrix faults).
  const FaultCounters* fault_counters() const {
    return fault_ ? &fault_->counters() : nullptr;
  }

  /// Forwards the context to the embedded detector and records remap
  /// decisions / migrations / canary verdicts as trace instants and
  /// counters.
  void set_observability(obs::ObsContext* obs) {
    obs_ = obs;
    detector_.set_observability(obs);
  }

 private:
  /// Evaluates a closing canary window; returns the restored pre-move
  /// placement on rollback, empty otherwise.
  std::vector<CoreId> close_canary(int barrier_index, std::uint64_t cum_cost,
                                   std::uint64_t cum_accesses);

  obs::ObsContext* obs_ = nullptr;
  SmDetector detector_;
  PhaseDetector phase_;
  HierarchicalMapper mapper_;
  const Topology* topology_;
  OnlineMapperConfig config_;
  Mapping current_;
  int migrations_ = 0;
  int remap_decisions_ = 0;
  int degraded_decisions_ = 0;
  int cooldown_left_ = 0;
  int rollbacks_ = 0;
  int canary_commits_ = 0;
  int backoff_skips_ = 0;
  int canary_left_ = 0;      ///< > 0 = a canary window is open
  int backoff_left_ = 0;     ///< remap decisions still damped
  int phase_rollbacks_ = 0;  ///< rollbacks since the phase began
  Mapping canary_prev_;      ///< pre-move placement (empty = none)
  // "cost" below is simulated cycles (barrier-release time): the canary
  // verdict compares cycles-per-access rates.
  std::uint64_t canary_cost_ = 0;      ///< cumulative cycles at canary open
  std::uint64_t canary_accesses_ = 0;  ///< cumulative accesses at canary open
  std::uint64_t baseline_cost_ = 0;    ///< phase cycle sum at canary open
  std::uint64_t baseline_accesses_ = 0;
  std::uint64_t decision_cost_ = 0;    ///< cumulative cycles at last decision
  std::uint64_t decision_accesses_ = 0;
  std::uint64_t phase_cost_ = 0;       ///< cycles accumulated this phase
  std::uint64_t phase_accesses_ = 0;
  /// Engaged only when the machine's plan carries matrix faults: the
  /// decision then runs on a noisy copy of the detected matrix.
  std::optional<FaultInjector> fault_;
};

}  // namespace tlbmap
