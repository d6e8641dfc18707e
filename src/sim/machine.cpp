#include "sim/machine.hpp"

#include <algorithm>
#include <string>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/shutdown.hpp"

namespace tlbmap {

Machine::Machine(const MachineConfig& config)
    : hierarchy_(config),
      thread_on_core_(static_cast<std::size_t>(config.num_cores()),
                      kNoThread) {}

namespace {

struct ThreadState {
  ThreadStream* stream = nullptr;
  Cycles clock = 0;
  bool at_barrier = false;
  bool done = false;

  bool runnable() const { return !done && !at_barrier; }
};

/// Binary min-heap over (clock, thread id): the scheduler's ready queue.
/// Entries go stale when a thread's clock moves or it blocks; the picker
/// validates the top against live state and drops stale entries, so the
/// only invariant is that every runnable thread has at least one entry
/// carrying its current clock.
///
/// An entry is one word, clock << 16 | thread, so the (clock, id) order
/// with its lowest-id tie-break is a single unsigned compare. That bounds
/// thread ids below 2^16 and keyed clocks below 2^48 cycles; every keyed
/// clock is OR-ed into clock_bits_, and the run checks clock_overflow()
/// before it trusts the heap again.
class ReadyHeap {
 public:
  static constexpr int kThreadBits = 16;
  static constexpr std::size_t kMaxThreads = std::size_t{1} << kThreadBits;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Cycles top_clock() const { return heap_.front() >> kThreadBits; }
  int top_thread() const {
    return static_cast<int>(heap_.front() & (kMaxThreads - 1));
  }
  /// True once a clock of 2^48 cycles or more was keyed (its key wrapped).
  bool clock_overflow() const {
    return (clock_bits_ >> (64 - kThreadBits)) != 0;
  }

  void push(Cycles clock, int thread) {
    const std::uint64_t e = key(clock, thread);
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent] <= e) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void pop() {
    const std::uint64_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from_top(last);
  }

  /// Gives the top entry a new clock and restores heap order with one
  /// sift-down: the picked thread's entry after it issued an event.
  void rekey_top(Cycles clock) {
    sift_down_from_top(key(clock, top_thread()));
  }

  /// Adds `delta` to every entry's clock. A uniform shift keeps heap
  /// order, so a global stall needs no re-heapify: each runnable thread's
  /// entry still carries its (shifted) current clock, and stale entries
  /// stay stale.
  void shift_all(Cycles delta) {
    for (std::uint64_t& e : heap_) {
      e = key((e >> kThreadBits) + delta,
              static_cast<int>(e & (kMaxThreads - 1)));
    }
    clock_bits_ |= delta;
  }

 private:
  std::uint64_t key(Cycles clock, int thread) {
    clock_bits_ |= clock;
    return clock << kThreadBits | static_cast<std::uint64_t>(thread);
  }

  /// Places `e` at the root, then moves it down to its place. The child
  /// pick is branch-free: the heap's compares are data-dependent, so a
  /// branch there mispredicts about half the time.
  void sift_down_from_top(std::uint64_t e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n) {
        child += static_cast<std::size_t>(heap_[child + 1] < heap_[child]);
      }
      if (heap_[child] >= e) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  std::vector<std::uint64_t> heap_;
  Cycles clock_bits_ = 0;  ///< OR of every keyed clock and stall
};

}  // namespace

MachineStats Machine::run(std::vector<std::unique_ptr<ThreadStream>> streams,
                          const RunConfig& config) {
  Expected<MachineStats> result = try_run(std::move(streams), config);
  if (!result) {
    const Error& err = result.error();
    if (err.code == ErrorCode::kInvalidArgument ||
        err.code == ErrorCode::kInvalidMapping) {
      throw std::invalid_argument(err.message);
    }
    // Distinct type so suite workers can tell "user asked us to stop" from
    // a genuine failure: an interrupted task is neither retried nor
    // recorded as degraded.
    if (err.code == ErrorCode::kInterrupted) {
      throw InterruptedError(err.message);
    }
    throw std::runtime_error(err.to_string());
  }
  return *result;
}

Expected<MachineStats> Machine::try_run(
    std::vector<std::unique_ptr<ThreadStream>> streams,
    const RunConfig& config) {
  const int num_threads = static_cast<int>(streams.size());
  if (config.thread_to_core.size() != streams.size()) {
    return Error{ErrorCode::kInvalidMapping,
                 "Machine::run: mapping size != thread count"};
  }
  if (streams.size() > ReadyHeap::kMaxThreads) {
    return Error{ErrorCode::kInvalidArgument,
                 "Machine::run: more than 65536 threads"};
  }
  std::fill(thread_on_core_.begin(), thread_on_core_.end(), kNoThread);
  for (ThreadId t = 0; t < num_threads; ++t) {
    const CoreId core = config.thread_to_core[static_cast<std::size_t>(t)];
    if (core < 0 || core >= topology().num_cores()) {
      return Error{ErrorCode::kInvalidMapping,
                   "Machine::run: core id out of range"};
    }
    if (thread_on_core_[static_cast<std::size_t>(core)] != kNoThread) {
      return Error{ErrorCode::kInvalidMapping,
                   "Machine::run: two threads on one core"};
    }
    thread_on_core_[static_cast<std::size_t>(core)] = t;
  }
  if (config.flush_first) hierarchy_.flush_caches();

  obs::TraceSpan run_span(obs::tracer_at(config.obs, obs::ObsLevel::kPhases),
                          "machine.run", "sim");

  MachineStats stats;
  const CoherenceDomain::DirectoryStats dir_before =
      hierarchy_.coherence().directory_stats();
  std::vector<ThreadState> threads(streams.size());
  // Per-thread detector cycles; the reported overhead is the critical-path
  // amount (max across threads), so overhead_fraction() stays a meaningful
  // share of execution time.
  std::vector<Cycles> overhead(streams.size(), 0);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    threads[t].stream = streams[t].get();
  }
  int live = num_threads;
  // Working copy: a MigrationPolicy may replace it at barrier releases.
  std::vector<CoreId> placement = config.thread_to_core;
  int barrier_count = 0;

  ReadyHeap ready;
  auto push_ready = [&](int t) {
    const ThreadState& ts = threads[static_cast<std::size_t>(t)];
    if (ts.runnable()) ready.push(ts.clock, t);
  };
  auto push_all_ready = [&] {
    for (int t = 0; t < num_threads; ++t) push_ready(t);
  };

  // Set when a non-recoverable failure happens inside a nested helper; the
  // event loop checks it after every step and unwinds with the error.
  std::optional<Error> fatal;

  auto apply_migration = [&](const std::vector<CoreId>& next) {
    if (next.empty()) return;
    // Validate before mutating thread_on_core_: an invalid mapping ends
    // the run with kInvalidMapping and leaves the placement untouched.
    bool valid = next.size() == placement.size();
    if (valid) {
      std::vector<bool> used(static_cast<std::size_t>(topology().num_cores()),
                             false);
      for (const CoreId core : next) {
        if (core < 0 || core >= topology().num_cores() ||
            used[static_cast<std::size_t>(core)]) {
          valid = false;
          break;
        }
        used[static_cast<std::size_t>(core)] = true;
      }
    }
    if (!valid) {
      fatal = Error{ErrorCode::kInvalidMapping,
                    next.size() == placement.size()
                        ? "MigrationPolicy: invalid mapping"
                        : "MigrationPolicy: wrong mapping size"};
      return;
    }
    std::fill(thread_on_core_.begin(), thread_on_core_.end(), kNoThread);
    int moved = 0;
    for (ThreadId t = 0; t < num_threads; ++t) {
      const CoreId core = next[static_cast<std::size_t>(t)];
      thread_on_core_[static_cast<std::size_t>(core)] = t;
      if (core != placement[static_cast<std::size_t>(t)] &&
          !threads[static_cast<std::size_t>(t)].done) {
        threads[static_cast<std::size_t>(t)].clock += config.migration_cost;
        ++moved;
      }
    }
    placement = next;
    if (moved > 0) {
      if (obs::Tracer* tracer =
              obs::tracer_at(config.obs, obs::ObsLevel::kFull)) {
        std::ostringstream args;
        args << "\"threads_moved\":" << moved;
        tracer->record_instant("machine.migrate", "sim", args.str());
      }
      if (obs::MetricsRegistry* metrics =
              obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
        metrics->counter("machine.thread_migrations")
            .add(static_cast<std::uint64_t>(moved));
      }
    }
  };

  auto release_barrier_if_ready = [&] {
    int waiting = 0;
    Cycles latest = 0;
    for (const ThreadState& ts : threads) {
      if (ts.done) continue;
      if (!ts.at_barrier) return;
      ++waiting;
      latest = std::max(latest, ts.clock);
    }
    if (waiting == 0) return;
    for (ThreadState& ts : threads) {
      if (ts.done) continue;
      ts.at_barrier = false;
      ts.clock = latest + config.barrier_latency;
    }
    ++barrier_count;
    if (obs::Tracer* tracer =
            obs::tracer_at(config.obs, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_count << ",\"sim_cycles\":" << latest;
      tracer->record_instant("machine.barrier", "sim", args.str());
    }
    if (config.migration != nullptr) {
      apply_migration(config.migration->on_barrier(
          barrier_count, latest + config.barrier_latency, stats));
    }
    // Every released thread has a fresh clock; reseed the scheduler heap.
    push_all_ready();
  };

  // Watchdog: a finite, well-formed trace always reaches kEnd, but recorded
  // traces can be truncated/corrupted into loops and generators can
  // misbehave; the event budget turns a hang into a structured error.
  const std::uint64_t watchdog_budget = hierarchy_.config().watchdog_max_events;
  std::uint64_t events_issued = 0;
  // Countdown to the next shutdown poll. Deliberately not derived from
  // events_issued: a modulo test on the event counter silently skips the
  // first window whenever a resumed or re-entered loop starts at a
  // non-aligned count, leaving SIGTERM unseen for up to a full window.
  // Starting the countdown at 1 makes the very first iteration poll.
  std::uint32_t shutdown_poll_countdown = 1;

  // Interval telemetry (RunConfig::metrics_interval_events): resolve the
  // progress gauges once; only deterministic values feed the series stream.
  obs::MetricsRegistry* interval_metrics =
      config.metrics_interval_events != 0
          ? obs::metrics_at(config.obs, obs::ObsLevel::kPhases)
          : nullptr;
  obs::Gauge* events_gauge = nullptr;
  obs::Gauge* accesses_gauge = nullptr;
  obs::Gauge* sim_cycles_gauge = nullptr;
  if (interval_metrics != nullptr) {
    events_gauge = &interval_metrics->gauge("machine.events_issued");
    accesses_gauge = &interval_metrics->gauge("machine.accesses");
    sim_cycles_gauge = &interval_metrics->gauge("machine.sim_cycles");
  }
  auto publish_progress = [&](Cycles sim_now) {
    events_gauge->set(static_cast<double>(events_issued));
    accesses_gauge->set(static_cast<double>(stats.accesses));
    sim_cycles_gauge->set(static_cast<double>(sim_now));
  };

  push_all_ready();
  while (live > 0) {
    if (fatal) return *std::move(fatal);
    if (ready.clock_overflow()) {
      return Error{ErrorCode::kInvalidArgument,
                   "Machine::run: simulated clock reached 2^48 cycles after " +
                       std::to_string(events_issued) + " events"};
    }
    // Cooperative shutdown (DESIGN.md Sec. 12): poll the process-wide flag
    // every 4096 events — often enough that SIGINT lands within
    // microseconds of simulated work, cheap enough to vanish from the hot
    // path. The run stops between events, so the caller's checkpoint sees
    // only completed work.
    if (--shutdown_poll_countdown == 0) {
      shutdown_poll_countdown = 4096;
      if (shutdown_requested()) {
        return Error{ErrorCode::kInterrupted,
                     "Machine::run: stopped by shutdown request after " +
                         std::to_string(events_issued) + " events"};
      }
    }
    if (watchdog_budget != 0 && events_issued >= watchdog_budget) {
      std::ostringstream msg;
      msg << "Machine::run: watchdog tripped after " << events_issued
          << " events (budget " << watchdog_budget << ")";
      if (obs::MetricsRegistry* metrics =
              obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
        metrics->counter("machine.watchdog_trips").add(1);
      }
      return Error{ErrorCode::kWatchdogTimeout, msg.str()};
    }
    // Pick the runnable thread with the smallest clock (lowest id on ties).
    // Its entry stays on top while the event runs and is re-keyed after.
    int next = -1;
    while (!ready.empty()) {
      const int top = ready.top_thread();
      const ThreadState& ts = threads[static_cast<std::size_t>(top)];
      if (ts.runnable() && ts.clock == ready.top_clock()) {
        next = top;
        break;
      }
      ready.pop();  // stale: clock moved or thread blocked since push
    }
    if (next == -1) {
      // Everyone alive is at a barrier (can happen when the last runnable
      // thread finished); release and continue.
      release_barrier_if_ready();
      continue;
    }

    ThreadState& ts = threads[static_cast<std::size_t>(next)];
    const std::size_t ready_before = ready.size();
    const TraceEvent ev = ts.stream->next();
    ++events_issued;
    switch (ev.kind) {
      case TraceEvent::Kind::kAccess: {
        const CoreId core = placement[static_cast<std::size_t>(next)];
        ts.clock += ev.access.compute_gap;
        const auto info =
            hierarchy_.access(core, ev.access.addr, ev.access.type, stats);
        ts.clock += info.latency;
        if (config.observer != nullptr) {
          const Cycles local = config.observer->on_access(
              next, core, ev.access.addr, info.page, ev.access.type,
              info.tlb_miss, ts.clock);
          ts.clock += local;
          overhead[static_cast<std::size_t>(next)] += local;

          const Cycles global = config.observer->on_tick(ts.clock);
          if (global > 0) {
            // A kernel-wide sweep stalls every thread equally. A thread
            // parked at a barrier still advances its clock (so the release
            // time folds the stall into `latest` when that thread is the
            // laggard), but the stall is not charged to its overhead[]: the
            // wait absorbs it, and the release overwrite would erase the
            // clock charge anyway — counting it would let
            // detection_overhead_cycles exceed the sweep's actual
            // critical-path impact.
            for (std::size_t o = 0; o < threads.size(); ++o) {
              if (threads[o].done) continue;
              threads[o].clock += global;
              if (!threads[o].at_barrier) overhead[o] += global;
            }
            ready.shift_all(global);
          }
        }
        break;
      }
      case TraceEvent::Kind::kBarrier:
        ts.at_barrier = true;
        release_barrier_if_ready();
        break;
      case TraceEvent::Kind::kEnd:
        ts.done = true;
        --live;
        release_barrier_if_ready();
        break;
    }
    if (ready.size() != ready_before) {
      // A barrier release pushed fresh entries, so the top may no longer
      // be this thread's; give it its own entry instead.
      push_ready(next);
    } else if (ts.runnable()) {
      ready.rekey_top(ts.clock);
    } else {
      ready.pop();  // blocked at a barrier or finished
    }
    if (interval_metrics != nullptr &&
        events_issued % config.metrics_interval_events == 0) {
      publish_progress(ts.clock);
      interval_metrics->sample_series(events_issued, "interval");
    }
  }
  if (fatal) return *std::move(fatal);

  Cycles finish = 0;
  for (const ThreadState& ts : threads) {
    finish = std::max(finish, ts.clock);
  }
  stats.execution_cycles = finish;
  for (const Cycles o : overhead) {
    stats.detection_overhead_cycles =
        std::max(stats.detection_overhead_cycles, o);
  }
  if (interval_metrics != nullptr) {
    // Leave the progress gauges at the end-of-run totals so the pipeline's
    // phase-boundary sample equals the final state of the run.
    publish_progress(finish);
  }
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
    // Simulator self-throughput: simulated accesses per wall-clock second.
    // Wall-clock tagged: excluded from the deterministic series stream.
    const std::uint64_t wall_us = run_span.elapsed_us();
    if (wall_us > 0) {
      metrics->wallclock_gauge("machine.sim_events_per_sec")
          .set(static_cast<double>(stats.accesses) * 1e6 /
               static_cast<double>(wall_us));
    }
    const CoherenceDomain& coherence = hierarchy_.coherence();
    const CoherenceDomain::DirectoryStats& dir = coherence.directory_stats();
    metrics->counter("coherence.directory_probes")
        .add(dir.probes - dir_before.probes);
    metrics->counter("coherence.directory_holder_hits")
        .add(dir.holder_hits - dir_before.holder_hits);
    metrics->counter("coherence.directory_holder_visits")
        .add(dir.holder_visits - dir_before.holder_visits);
    metrics->counter("coherence.directory_pooled_rows")
        .add(dir.pooled_rows - dir_before.pooled_rows);
    metrics->gauge("coherence.directory_lines")
        .set(static_cast<double>(coherence.directory_lines()));
    std::ostringstream args;
    args << "\"accesses\":" << stats.accesses
         << ",\"sim_cycles\":" << stats.execution_cycles
         << ",\"barriers\":" << barrier_count;
    run_span.set_args(args.str());
  }
  return stats;
}

}  // namespace tlbmap
