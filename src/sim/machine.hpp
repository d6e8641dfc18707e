// The simulated machine: threads pinned to cores, per-thread clocks, barrier
// synchronisation, and hooks for communication detectors.
//
// Execution is event-driven: at each step the runnable thread with the
// smallest clock (lowest id on ties) issues its next trace event, so
// accesses from different threads interleave in simulated-time order (this
// is what stands in for Simics). One binary min-heap over (clock, id) picks
// that thread at every thread count; after an event the picked thread's
// entry is re-keyed in place with a single sift-down. A heap entry is one
// word, clock << 16 | id, so a run holds at most 2^16 threads, and a run
// whose clock reaches 2^48 cycles ends with an error. Detectors observe
// two signals, matching the paper's two mechanisms: per-access TLB-miss
// notifications (software-managed TLB trap) and the advance of global time
// (the hardware-managed TLB's periodic search).
#pragma once

#include <memory>
#include <vector>

#include "core/expected.hpp"
#include "obs/obs.hpp"
#include "sim/hierarchy.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// Decides thread migrations at barrier boundaries (dynamic mapping — the
/// paper's future work). Barriers are the natural migration points: every
/// thread is stopped anyway, so no in-flight accesses are disturbed.
class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;

  /// Called after each barrier release. Return a full new thread->core
  /// mapping to migrate, or an empty vector to keep the current placement.
  /// `stats` is the run's live cumulative counter block at the barrier, so
  /// a policy can price the realized cost of its own past migrations (the
  /// OnlineMapper's canary windows, DESIGN.md Sec. 17).
  virtual std::vector<CoreId> on_barrier(int barrier_index, Cycles now,
                                         const MachineStats& stats) = 0;
};

/// Hook interface implemented by the communication detectors.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;

  /// Called after every access. `tlb_miss` is the software-managed trigger.
  /// The returned cycles are charged to the issuing thread (the cost of the
  /// OS search routine, paper Sec. VI-C). `addr` is the full virtual
  /// address (granularity studies); `page` = addr >> page_shift.
  virtual Cycles on_access(ThreadId thread, CoreId core, VirtAddr addr,
                           PageNum page, AccessType type, bool tlb_miss,
                           Cycles now) = 0;

  /// Called as global simulated time advances (monotonically). The returned
  /// cycles stall *all* threads (the kernel-wide sweep of the
  /// hardware-managed mechanism).
  virtual Cycles on_tick(Cycles now) = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  struct RunConfig {
    /// thread_to_core[t] = core executing thread t. Must be a permutation
    /// into distinct cores; threads move only when `migration` returns a
    /// new placement (the paper evaluates static mappings).
    std::vector<CoreId> thread_to_core;
    /// Fixed cost of one barrier episode (join + fork).
    Cycles barrier_latency = 500;
    MachineObserver* observer = nullptr;
    /// Optional dynamic mapping: consulted at every barrier release. A
    /// returned placement that is not a valid mapping ends the run with
    /// kInvalidMapping.
    MigrationPolicy* migration = nullptr;
    /// Charged to each thread that changes core (context save/restore; the
    /// cold TLB and caches on the new core are modelled naturally).
    Cycles migration_cost = 2000;
    /// Flush caches/TLBs before the run (cold start, default) — repetitions
    /// of an experiment should not leak state into each other.
    bool flush_first = true;
    /// Optional observability sink: the run records a "machine.run" span
    /// (kPhases) and per-barrier/migration instants (kFull). Null = off.
    obs::ObsContext* obs = nullptr;
    /// Epoch-bucketed telemetry: every N issued events (0 = off) the run
    /// refreshes its progress gauges (machine.events_issued,
    /// machine.accesses, machine.sim_cycles) and captures one deterministic
    /// time-series sample tagged "interval" in the registry. Requires `obs`
    /// at kPhases or above.
    std::uint64_t metrics_interval_events = 0;
  };

  /// Runs every stream to completion and returns the collected counters.
  /// streams[t] is thread t's trace.
  ///
  /// Thin wrapper over try_run() preserving the historical throwing API:
  /// configuration errors surface as std::invalid_argument, watchdog trips
  /// as std::runtime_error.
  MachineStats run(std::vector<std::unique_ptr<ThreadStream>> streams,
                   const RunConfig& config);

  /// Non-throwing variant: every failure mode — bad placement, an invalid
  /// mapping from the MigrationPolicy (wrong size, a core out of range or
  /// used twice: kInvalidMapping), a clock that reaches 2^48 cycles or
  /// more than 2^16 threads (kInvalidArgument), watchdog budget exceeded —
  /// returns a structured Error instead of raising; no exception escapes it
  /// for any input that does not itself throw from a user-supplied
  /// stream/observer. Only tests call it directly: run_suite reaches run()
  /// through Pipeline and folds the exceptions into kWorkerFailure.
  Expected<MachineStats> try_run(
      std::vector<std::unique_ptr<ThreadStream>> streams,
      const RunConfig& config);

  MemoryHierarchy& hierarchy() { return hierarchy_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  const Topology& topology() const { return hierarchy_.topology(); }
  /// The configuration this machine was built from; detectors read the
  /// fault-injection plan (config().fault) through this.
  const MachineConfig& config() const { return hierarchy_.config(); }

  /// Thread currently pinned to `core`, or kNoThread. Valid during run()
  /// (detectors query it to turn core-level TLB matches into thread pairs).
  ThreadId thread_on(CoreId core) const {
    return thread_on_core_[static_cast<std::size_t>(core)];
  }

 private:
  MemoryHierarchy hierarchy_;
  std::vector<ThreadId> thread_on_core_;
};

}  // namespace tlbmap
