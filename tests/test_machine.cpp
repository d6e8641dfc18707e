// Tests for the event-driven machine: clocks, barriers, observer hooks,
// mapping validation and determinism.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/machine.hpp"
#include "vector_stream.hpp"

namespace tlbmap {
namespace {

TraceEvent read_at(VirtAddr addr, std::uint32_t gap = 0) {
  return TraceEvent::make_access(addr, AccessType::kRead, gap);
}
TraceEvent write_at(VirtAddr addr, std::uint32_t gap = 0) {
  return TraceEvent::make_access(addr, AccessType::kWrite, gap);
}

Machine::RunConfig identity_run(int n) {
  Machine::RunConfig cfg;
  for (int t = 0; t < n; ++t) cfg.thread_to_core.push_back(t);
  return cfg;
}

TEST(Machine, EmptyRunFinishesAtZero) {
  Machine m(MachineConfig::tiny());
  const MachineStats stats =
      m.run(streams_of({{}, {}}), identity_run(2));
  EXPECT_EQ(stats.execution_cycles, 0u);
  EXPECT_EQ(stats.accesses, 0u);
}

TEST(Machine, SingleAccessCounted) {
  Machine m(MachineConfig::tiny());
  const MachineStats stats =
      m.run(streams_of({{read_at(64)}}), identity_run(1));
  EXPECT_EQ(stats.accesses, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.tlb_misses, 1u);  // cold TLB
  EXPECT_GT(stats.execution_cycles, 0u);
}

TEST(Machine, ComputeGapAddsCycles) {
  Machine m(MachineConfig::tiny());
  const MachineStats without =
      m.run(streams_of({{read_at(64, 0)}}), identity_run(1));
  const MachineStats with_gap =
      m.run(streams_of({{read_at(64, 100)}}), identity_run(1));
  EXPECT_EQ(with_gap.execution_cycles, without.execution_cycles + 100);
}

TEST(Machine, ExecutionTimeIsMaxThreadClock) {
  Machine m(MachineConfig::tiny());
  // Thread 1 has far more work; the run must end at its clock.
  std::vector<TraceEvent> heavy;
  for (int i = 0; i < 50; ++i) heavy.push_back(read_at(64, 10));
  const MachineStats both = m.run(
      streams_of({{read_at(0)}, heavy}), identity_run(2));
  const MachineStats solo_heavy = m.run(
      streams_of({heavy, {}}), identity_run(2));
  EXPECT_EQ(both.execution_cycles, solo_heavy.execution_cycles);
}

TEST(Machine, BarrierSynchronisesClocks) {
  MachineConfig cfg = MachineConfig::tiny();
  Machine m(cfg);
  Machine::RunConfig run = identity_run(2);
  run.barrier_latency = 1000;
  // Thread 0: quick access, barrier, quick access.
  // Thread 1: slow access (big gap), barrier, quick access.
  const MachineStats stats = m.run(
      streams_of({
          {read_at(0, 0), TraceEvent::make_barrier(), read_at(64, 0)},
          {read_at(4096, 5000), TraceEvent::make_barrier(),
           read_at(8192, 0)},
      }),
      run);
  // Finish >= slow thread's pre-barrier time + barrier + its last access.
  EXPECT_GT(stats.execution_cycles, 5000u + 1000u);
}

TEST(Machine, BarrierWithFinishedThreadReleases) {
  Machine m(MachineConfig::tiny());
  // Thread 0 ends immediately; thread 1 hits a barrier afterwards — the
  // barrier must release (only live threads are counted) and the run ends.
  const MachineStats stats = m.run(
      streams_of({
          {},
          {read_at(0), TraceEvent::make_barrier(), read_at(64)},
      }),
      identity_run(2));
  EXPECT_EQ(stats.accesses, 2u);
}

TEST(Machine, ConsecutiveBarriersWork) {
  Machine m(MachineConfig::tiny());
  const MachineStats stats = m.run(
      streams_of({
          {TraceEvent::make_barrier(), TraceEvent::make_barrier(),
           read_at(0)},
          {TraceEvent::make_barrier(), TraceEvent::make_barrier(),
           read_at(64)},
      }),
      identity_run(2));
  EXPECT_EQ(stats.accesses, 2u);
}

TEST(Machine, RejectsMappingSizeMismatch) {
  Machine m(MachineConfig::tiny());
  Machine::RunConfig run;
  run.thread_to_core = {0};  // 1 core for 2 threads
  EXPECT_THROW(m.run(streams_of({{}, {}}), run), std::invalid_argument);
}

TEST(Machine, RejectsDuplicateCores) {
  Machine m(MachineConfig::tiny());
  Machine::RunConfig run;
  run.thread_to_core = {0, 0};
  EXPECT_THROW(m.run(streams_of({{}, {}}), run), std::invalid_argument);
}

TEST(Machine, RejectsOutOfRangeCore) {
  Machine m(MachineConfig::tiny());
  Machine::RunConfig run;
  run.thread_to_core = {0, 9};
  EXPECT_THROW(m.run(streams_of({{}, {}}), run), std::invalid_argument);
}

// A scheduler key holds a clock in 48 bits. Every access below adds a
// compute gap of 2^32 - 1 cycles, so the clock passes 2^48 after about
// 65.5k accesses: 65,000 of them fit, 70,000 end with a structured error
// instead of a wrapped key.
TEST(Machine, ClockPast48BitsEndsTheRunWithAnError) {
  const auto run_reads = [](int n) {
    Machine m(MachineConfig::tiny());
    return m.try_run(
        streams_of({std::vector<TraceEvent>(
            static_cast<std::size_t>(n), read_at(64, UINT32_MAX))}),
        identity_run(1));
  };
  const Expected<MachineStats> fits = run_reads(65'000);
  ASSERT_TRUE(fits.has_value()) << fits.error().to_string();
  EXPECT_LT(fits->execution_cycles, Cycles{1} << 48);

  const Expected<MachineStats> past = run_reads(70'000);
  ASSERT_FALSE(past.has_value());
  EXPECT_EQ(past.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(past.error().message.find("2^48"), std::string::npos)
      << past.error().message;
}

TEST(Machine, RejectsZeroCoresPerL2) {
  MachineConfig c;
  c.cores_per_l2 = 0;
  EXPECT_THROW(Machine{c}, std::invalid_argument);
}

TEST(Machine, ThreadOnReflectsMapping) {
  Machine m(MachineConfig::tiny());
  Machine::RunConfig run;
  run.thread_to_core = {1, 0};  // swapped

  class PlacementCheck final : public MachineObserver {
   public:
    explicit PlacementCheck(Machine& m) : machine_(&m) {}
    Cycles on_access(ThreadId thread, CoreId core, VirtAddr, PageNum,
                     AccessType, bool, Cycles) override {
      EXPECT_EQ(machine_->thread_on(core), thread);
      ++calls;
      return 0;
    }
    Cycles on_tick(Cycles) override { return 0; }
    int calls = 0;

   private:
    Machine* machine_;
  } check(m);

  run.observer = &check;
  m.run(streams_of({{read_at(0)}, {read_at(4096)}}), run);
  EXPECT_EQ(check.calls, 2);
  EXPECT_EQ(m.thread_on(1), 0);
  EXPECT_EQ(m.thread_on(0), 1);
}

TEST(Machine, ObserverLocalOverheadChargedToThread) {
  Machine m(MachineConfig::tiny());

  class Charger final : public MachineObserver {
   public:
    Cycles on_access(ThreadId, CoreId, VirtAddr, PageNum, AccessType, bool,
                     Cycles) override {
      return 500;
    }
    Cycles on_tick(Cycles) override { return 0; }
  } charger;

  Machine::RunConfig with = identity_run(1);
  with.observer = &charger;
  const MachineStats charged =
      m.run(streams_of({{read_at(0), read_at(0)}}), with);
  const MachineStats plain =
      m.run(streams_of({{read_at(0), read_at(0)}}), identity_run(1));
  EXPECT_EQ(charged.execution_cycles, plain.execution_cycles + 2 * 500);
  EXPECT_EQ(charged.detection_overhead_cycles, 1000u);
}

TEST(Machine, ObserverGlobalStallChargedToAll) {
  Machine m(MachineConfig::tiny());

  class GlobalStall final : public MachineObserver {
   public:
    Cycles on_access(ThreadId, CoreId, VirtAddr, PageNum, AccessType, bool,
                     Cycles) override {
      return 0;
    }
    Cycles on_tick(Cycles) override {
      if (fired_) return 0;
      fired_ = true;
      return 10'000;
    }

   private:
    bool fired_ = false;
  } stall;

  Machine::RunConfig with = identity_run(2);
  with.observer = &stall;
  const MachineStats charged = m.run(
      streams_of({{read_at(0)}, {read_at(4096)}}), with);
  const MachineStats plain = m.run(
      streams_of({{read_at(0)}, {read_at(4096)}}), identity_run(2));
  EXPECT_EQ(charged.execution_cycles, plain.execution_cycles + 10'000);
  EXPECT_EQ(charged.detection_overhead_cycles, 10'000u);
}

TEST(Machine, BarrierWaitAbsorbsGlobalStallOverhead) {
  Machine m(MachineConfig::tiny());

  // Fires a global stall on two specific ticks: #5, while thread 0 waits at
  // the barrier and thread 1 runs, and #9, while thread 0 runs alone after
  // thread 1 finished.
  class TimedStall final : public MachineObserver {
   public:
    Cycles on_access(ThreadId, CoreId, VirtAddr, PageNum, AccessType, bool,
                     Cycles) override {
      return 0;
    }
    Cycles on_tick(Cycles) override {
      ++ticks;
      return (ticks == 5 || ticks == 9) ? 10'000 : 0;
    }
    int ticks = 0;
  } stall;

  // Thread 0: one access, barrier, five accesses (ticks 1, 7-11).
  // Thread 1: five slow accesses, barrier (ticks 2-6) — its clock dominates
  // the release, so thread 0 waits through tick 5's stall.
  std::vector<TraceEvent> a, b;
  a.push_back(read_at(0));
  a.push_back(TraceEvent::make_barrier());
  for (int i = 0; i < 5; ++i) a.push_back(read_at(0));
  for (int i = 0; i < 5; ++i) b.push_back(read_at(4096, 1000));
  b.push_back(TraceEvent::make_barrier());

  Machine::RunConfig run = identity_run(2);
  run.observer = &stall;
  const MachineStats stats = m.run(streams_of({a, b}), run);
  ASSERT_EQ(stall.ticks, 11);
  // Tick 5's stall folds into thread 0's barrier wait (the release
  // overwrites its clock), so it may only count against thread 1; tick 9's
  // stall hits thread 0 alone. Each thread carries exactly one stall —
  // charging the barrier-parked thread too would report 20'000 here, more
  // than the sweeps' actual critical-path impact.
  EXPECT_EQ(stats.detection_overhead_cycles, 10'000u);
}

TEST(Machine, TlbMissFlagReachesObserver) {
  Machine m(MachineConfig::tiny());

  class MissLog final : public MachineObserver {
   public:
    Cycles on_access(ThreadId, CoreId, VirtAddr, PageNum page, AccessType,
                     bool tlb_miss, Cycles) override {
      log.emplace_back(page, tlb_miss);
      return 0;
    }
    Cycles on_tick(Cycles) override { return 0; }
    std::vector<std::pair<PageNum, bool>> log;
  } miss_log;

  Machine::RunConfig run = identity_run(1);
  run.observer = &miss_log;
  m.run(streams_of({{read_at(0), read_at(8), read_at(4096)}}), run);
  ASSERT_EQ(miss_log.log.size(), 3u);
  EXPECT_TRUE(miss_log.log[0].second);   // cold miss page 0
  EXPECT_FALSE(miss_log.log[1].second);  // same page hit
  EXPECT_TRUE(miss_log.log[2].second);   // page 1 miss
  EXPECT_EQ(miss_log.log[2].first, 1u);
}

TEST(Machine, SharedL2MakesCommunicationLocal) {
  // tiny(): 2 cores sharing one L2 — a line written by core 0 and read by
  // core 1 must hit in the shared L2 with no snoop traffic.
  Machine m(MachineConfig::tiny());
  const MachineStats stats = m.run(
      streams_of({{write_at(64)}, {read_at(64, 50)}}),  // gap orders thread 1 after 0
      identity_run(2));
  EXPECT_EQ(stats.snoop_transactions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.l2_misses, 1u);  // only the initial write miss
}

TEST(Machine, DeterministicAcrossRuns) {
  auto build = [] {
    std::vector<TraceEvent> a, b;
    for (int i = 0; i < 100; ++i) {
      a.push_back(write_at(static_cast<VirtAddr>(i) * 64, i % 3));
      b.push_back(read_at(static_cast<VirtAddr>(i) * 64, (i + 1) % 3));
    }
    return streams_of({a, b});
  };
  Machine m1(MachineConfig::tiny());
  Machine m2(MachineConfig::tiny());
  const MachineStats s1 = m1.run(build(), identity_run(2));
  const MachineStats s2 = m2.run(build(), identity_run(2));
  EXPECT_EQ(s1.execution_cycles, s2.execution_cycles);
  EXPECT_EQ(s1.invalidations, s2.invalidations);
  EXPECT_EQ(s1.snoop_transactions, s2.snoop_transactions);
  EXPECT_EQ(s1.l2_misses, s2.l2_misses);
}

TEST(Machine, CountersConsistent) {
  Machine m(MachineConfig::tiny());
  std::vector<TraceEvent> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(write_at(static_cast<VirtAddr>(i % 40) * 64));
    b.push_back(read_at(static_cast<VirtAddr>(i % 40) * 64));
  }
  const MachineStats s = m.run(streams_of({a, b}), identity_run(2));
  EXPECT_EQ(s.accesses, 1000u);
  EXPECT_EQ(s.reads + s.writes, s.accesses);
  EXPECT_EQ(s.tlb_hits + s.tlb_misses, s.accesses);
  EXPECT_EQ(s.l1_hits + s.l1_misses, s.accesses);
  EXPECT_EQ(s.l2_hits + s.l2_misses, s.l2_accesses);
  EXPECT_LE(s.l2_misses, s.l2_accesses);
}

}  // namespace
}  // namespace tlbmap
