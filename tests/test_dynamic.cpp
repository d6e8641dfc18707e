// Tests for in-run thread migration and the online mapper.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "npb/synthetic.hpp"
#include "sim/machine.hpp"
#include "vector_stream.hpp"

namespace tlbmap {
namespace {

TraceEvent read_at(VirtAddr addr) {
  return TraceEvent::make_access(addr, AccessType::kRead, 0);
}

/// Swaps the two threads at every barrier.
class SwapPolicy final : public MigrationPolicy {
 public:
  std::vector<CoreId> on_barrier(int, Cycles, const MachineStats&) override {
    swapped_ = !swapped_;
    ++calls_;
    return swapped_ ? std::vector<CoreId>{1, 0} : std::vector<CoreId>{0, 1};
  }
  int calls() const { return calls_; }

 private:
  bool swapped_ = false;
  int calls_ = 0;
};

TEST(Migration, PolicyConsultedAtEachBarrier) {
  Machine m(MachineConfig::tiny());
  SwapPolicy policy;
  Machine::RunConfig run;
  run.thread_to_core = {0, 1};
  run.migration = &policy;
  m.run(streams_of({
            {read_at(0), TraceEvent::make_barrier(), read_at(64),
             TraceEvent::make_barrier()},
            {read_at(4096), TraceEvent::make_barrier(), read_at(8192),
             TraceEvent::make_barrier()},
        }),
        run);
  EXPECT_EQ(policy.calls(), 2);
  // Two swaps: the placement is back to identity.
  EXPECT_EQ(m.thread_on(0), 0);
  EXPECT_EQ(m.thread_on(1), 1);
}

/// Records the live access counter the event loop hands over at each
/// barrier release; never migrates.
class RecordingPolicy final : public MigrationPolicy {
 public:
  std::vector<CoreId> on_barrier(int, Cycles,
                                 const MachineStats& stats) override {
    seen_.push_back(stats.accesses);
    return {};
  }
  const std::vector<std::uint64_t>& seen() const { return seen_; }

 private:
  std::vector<std::uint64_t> seen_;
};

TEST(Migration, PolicySeesLiveStatsAtBarriers) {
  Machine m(MachineConfig::tiny());
  RecordingPolicy policy;
  Machine::RunConfig run;
  run.thread_to_core = {0, 1};
  run.migration = &policy;
  const MachineStats final_stats = m.run(
      streams_of({
          {read_at(0), read_at(64), TraceEvent::make_barrier(), read_at(128),
           TraceEvent::make_barrier(), read_at(192), read_at(256),
           TraceEvent::make_barrier(), read_at(320)},
          {read_at(4096), TraceEvent::make_barrier(), read_at(8192),
           read_at(8256), TraceEvent::make_barrier(),
           TraceEvent::make_barrier(), read_at(8320)},
      }),
      run);
  const std::vector<std::uint64_t>& seen = policy.seen();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_GT(seen.front(), 0u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i], seen[i - 1]) << "barrier " << i;
  }
  // Accesses issued after the last barrier are not yet counted there.
  EXPECT_LT(seen.back(), final_stats.accesses);
}

TEST(Migration, MigrationCostCharged) {
  Machine m(MachineConfig::tiny());
  SwapPolicy policy;
  auto make = [] {
    return streams_of({
        {read_at(0), TraceEvent::make_barrier(), read_at(0)},
        {read_at(4096), TraceEvent::make_barrier(), read_at(4096)},
    });
  };
  Machine::RunConfig stay;
  stay.thread_to_core = {0, 1};
  const MachineStats base = m.run(make(), stay);

  Machine::RunConfig move = stay;
  move.migration = &policy;
  move.migration_cost = 50'000;
  const MachineStats migrated = m.run(make(), move);
  // Both threads moved once: the post-barrier accesses also miss cold
  // TLB/L1 on the new core, so the delta exceeds the flat cost.
  EXPECT_GE(migrated.execution_cycles, base.execution_cycles + 50'000);
}

TEST(Migration, InvalidPolicyMappingThrows) {
  Machine m(MachineConfig::tiny());
  class BadPolicy final : public MigrationPolicy {
    std::vector<CoreId> on_barrier(int, Cycles, const MachineStats&) override {
      return {0, 0};
    }
  } bad;
  Machine::RunConfig run;
  run.thread_to_core = {0, 1};
  run.migration = &bad;
  EXPECT_THROW(m.run(streams_of({
                         {TraceEvent::make_barrier()},
                         {TraceEvent::make_barrier()},
                     }),
                     run),
               std::invalid_argument);
}

TEST(Migration, EmptyReturnKeepsPlacement) {
  Machine m(MachineConfig::tiny());
  class KeepPolicy final : public MigrationPolicy {
    std::vector<CoreId> on_barrier(int, Cycles, const MachineStats&) override {
      return {};
    }
  } keep;
  Machine::RunConfig run;
  run.thread_to_core = {1, 0};
  run.migration = &keep;
  m.run(streams_of({
            {read_at(0), TraceEvent::make_barrier(), read_at(0)},
            {read_at(4096), TraceEvent::make_barrier(), read_at(4096)},
        }),
        run);
  EXPECT_EQ(m.thread_on(1), 0);
  EXPECT_EQ(m.thread_on(0), 1);
}

// ------------------------------------------------------------ OnlineMapper

SyntheticSpec phased_spec() {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPhaseShift;
  spec.private_pages = 64;
  spec.shared_pages = 8;
  spec.shared_accesses = 4096;
  spec.iterations = 12;
  return spec;
}

TEST(OnlineMapper, MigratesAndImproves) {
  Pipeline pipe(MachineConfig::harpertown());
  const auto workload = make_synthetic(phased_spec());

  OnlineMapperConfig cfg;
  cfg.remap_every_barriers = 2;
  cfg.detector.sample_threshold = 3;
  // This run is only ~12 barriers long; the default cooldown's damping
  // would eat a sizable slice of it, so react at full speed here (the
  // damped default path is covered by the Canary/Rollback tests below).
  cfg.migration_cooldown = 0;

  // Start from an adversarial placement: partners split across sockets.
  const Mapping bad_start = {0, 4, 1, 5, 2, 6, 3, 7};
  const auto dynamic = pipe.evaluate_dynamic(*workload, bad_start, cfg, 3);
  const MachineStats still = pipe.evaluate(*workload, bad_start, 3);

  EXPECT_GT(dynamic.migrations, 0);
  EXPECT_GT(dynamic.remap_decisions, 0);
  EXPECT_LT(dynamic.stats.execution_cycles, still.execution_cycles);
  EXPECT_LT(dynamic.stats.invalidations, still.invalidations);
  EXPECT_TRUE(is_valid_mapping(dynamic.final_mapping, 8));
}

TEST(OnlineMapper, NoMigrationBelowMatrixThreshold) {
  Pipeline pipe(MachineConfig::harpertown());
  SyntheticSpec spec = phased_spec();
  spec.iterations = 2;
  const auto workload = make_synthetic(spec);
  OnlineMapperConfig cfg;
  cfg.min_matrix_total = 1u << 30;  // unreachable
  const auto result =
      pipe.evaluate_dynamic(*workload, identity_mapping(8), cfg, 3);
  EXPECT_EQ(result.migrations, 0);
  EXPECT_EQ(result.final_mapping, identity_mapping(8));
}

TEST(OnlineMapper, StablePatternConvergesToFewMigrations) {
  // A static pairs pattern: after the first good mapping, further remap
  // decisions should keep the placement (migrations << decisions).
  Pipeline pipe(MachineConfig::harpertown());
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 64;
  spec.shared_pages = 8;
  spec.iterations = 12;
  const auto workload = make_synthetic(spec);
  OnlineMapperConfig cfg;
  cfg.remap_every_barriers = 2;
  cfg.detector.sample_threshold = 3;
  const auto result =
      pipe.evaluate_dynamic(*workload, identity_mapping(8), cfg, 3);
  EXPECT_GT(result.remap_decisions, 2);
  EXPECT_LE(result.migrations, result.remap_decisions / 2 + 1);
}

TEST(OnlineMapper, RejectsInvalidInitialMapping) {
  Pipeline pipe(MachineConfig::harpertown());
  const auto workload = make_synthetic(phased_spec());
  EXPECT_THROW(pipe.evaluate_dynamic(*workload, Mapping{0, 0, 1, 2, 3, 4, 5, 6},
                                     OnlineMapperConfig{}, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Canary transactions, rollback and checkpointed decision state (PR 10).
//
// These drive OnlineMapper directly: the detected matrix is seeded through
// restore() and barriers carry fabricated cycle/access counters, so every
// cost rate the canary compares is chosen exactly.

OnlineMapperConfig canary_config() {
  OnlineMapperConfig cfg;
  cfg.remap_every_barriers = 1;
  cfg.min_matrix_total = 1;
  cfg.improvement_threshold = 0.0;
  cfg.migration_cooldown = 0;
  cfg.canary_barriers = 3;
  cfg.regression_threshold = 0.25;
  // Keep the phase detector quiet: these tests exercise the canary path,
  // and a phase epoch would abort the open window (that path has its own
  // tests in test_phase_detector).
  cfg.phase.drift_threshold = 0.0;
  cfg.phase.miss_rate_delta = 0.0;
  return cfg;
}

/// Seeds the mapper's detected matrix via its own restore path: pairs
/// (0,1) and (2,3) share heavily, nothing else communicates.
void seed_pairs_matrix(OnlineMapper& mapper) {
  OnlineMapperState s = mapper.state();
  s.detector.matrix = CommMatrix(4);
  s.detector.matrix.add(0, 1, 1000);
  s.detector.matrix.add(2, 3, 1000);
  mapper.restore(s);
}

MachineStats stats_of(std::uint64_t accesses) {
  MachineStats s;
  s.accesses = accesses;
  return s;
}

/// Partners split across L2 domains on Harpertown — the matcher will move.
const Mapping kSplitStart = {0, 2, 4, 6};

TEST(OnlineMapper, DefaultCooldownIsMeasuredNonZero) {
  // PR 10 satellite: one aged decision window must re-confirm a pattern
  // before the next migration; 0 (the historical behaviour) stays legal
  // and reachable via --migration-cooldown.
  EXPECT_EQ(OnlineMapperConfig{}.migration_cooldown, 1);
  OnlineMapperConfig zero;
  zero.migration_cooldown = 0;
  EXPECT_NO_THROW(zero.validate());
}

TEST(OnlineMapper, ConfigValidationRejectsBadKnobs) {
  Machine machine(MachineConfig::harpertown());
  const auto reject = [&](auto mutate) {
    OnlineMapperConfig cfg;
    mutate(cfg);
    EXPECT_THROW(OnlineMapper(machine, 4, kSplitStart, cfg),
                 std::invalid_argument);
  };
  reject([](OnlineMapperConfig& c) { c.decay = 0.0; });
  reject([](OnlineMapperConfig& c) { c.decay = 1.5; });
  reject([](OnlineMapperConfig& c) { c.improvement_threshold = 1.0; });
  reject([](OnlineMapperConfig& c) { c.migration_cooldown = -1; });
  reject([](OnlineMapperConfig& c) { c.canary_barriers = -1; });
  reject([](OnlineMapperConfig& c) { c.regression_threshold = -0.5; });
  reject([](OnlineMapperConfig& c) { c.remap_every_barriers = -2; });
}

TEST(OnlineMapper, CanaryRollbackRestoresPreMovePlacement) {
  Machine machine(MachineConfig::harpertown());
  OnlineMapper mapper(machine, 4, kSplitStart, canary_config());
  seed_pairs_matrix(mapper);

  // Barrier 0: baseline rate 1.0 cycles/access, migration opens a canary.
  const auto moved = mapper.on_barrier(0, 1000, stats_of(1000));
  ASSERT_FALSE(moved.empty());
  EXPECT_NE(moved, kSplitStart);
  EXPECT_EQ(mapper.migrations(), 1);
  EXPECT_GT(mapper.state().canary_left, 0);

  // The canary window runs at 4x the baseline rate: cycles race ahead of
  // accesses. The window closes on the third tick and must roll back.
  EXPECT_TRUE(mapper.on_barrier(1, 3000, stats_of(1500)).empty());
  EXPECT_TRUE(mapper.on_barrier(2, 5000, stats_of(2000)).empty());
  const auto rolled = mapper.on_barrier(3, 7000, stats_of(2500));
  EXPECT_EQ(rolled, kSplitStart);
  EXPECT_EQ(mapper.current_mapping(), kSplitStart);
  EXPECT_EQ(mapper.rollbacks(), 1);
  EXPECT_EQ(mapper.canary_commits(), 0);
  EXPECT_EQ(mapper.state().canary_left, 0);
}

TEST(OnlineMapper, CanaryCommitKeepsMigration) {
  Machine machine(MachineConfig::harpertown());
  OnlineMapper mapper(machine, 4, kSplitStart, canary_config());
  seed_pairs_matrix(mapper);

  const auto moved = mapper.on_barrier(0, 1000, stats_of(1000));
  ASSERT_FALSE(moved.empty());

  // Post-move rate equals the baseline: the migration survives its window.
  EXPECT_TRUE(mapper.on_barrier(1, 2000, stats_of(2000)).empty());
  EXPECT_TRUE(mapper.on_barrier(2, 3000, stats_of(3000)).empty());
  EXPECT_TRUE(mapper.on_barrier(3, 4000, stats_of(4000)).empty());
  EXPECT_EQ(mapper.current_mapping(), moved);
  EXPECT_EQ(mapper.canary_commits(), 1);
  EXPECT_EQ(mapper.rollbacks(), 0);
}

TEST(OnlineMapper, RollbackDisabledMeasuresButNeverReverts) {
  Machine machine(MachineConfig::harpertown());
  OnlineMapperConfig cfg = canary_config();
  cfg.rollback = false;
  OnlineMapper mapper(machine, 4, kSplitStart, cfg);
  seed_pairs_matrix(mapper);

  const auto moved = mapper.on_barrier(0, 1000, stats_of(1000));
  ASSERT_FALSE(moved.empty());
  // Same regressed window as the rollback test; the verdict is recorded
  // (telemetry) but the placement must stand.
  EXPECT_TRUE(mapper.on_barrier(1, 3000, stats_of(1500)).empty());
  EXPECT_TRUE(mapper.on_barrier(2, 5000, stats_of(2000)).empty());
  EXPECT_TRUE(mapper.on_barrier(3, 7000, stats_of(2500)).empty());
  EXPECT_EQ(mapper.current_mapping(), moved);
  EXPECT_EQ(mapper.rollbacks(), 0);
}

TEST(OnlineMapper, BackoffDampsRemigrationAfterRollback) {
  Machine machine(MachineConfig::harpertown());
  OnlineMapper mapper(machine, 4, kSplitStart, canary_config());
  seed_pairs_matrix(mapper);

  ASSERT_FALSE(mapper.on_barrier(0, 1000, stats_of(1000)).empty());
  mapper.on_barrier(1, 3000, stats_of(1500));
  mapper.on_barrier(2, 5000, stats_of(2000));
  ASSERT_EQ(mapper.on_barrier(3, 7000, stats_of(2500)), kSplitStart);
  ASSERT_EQ(mapper.rollbacks(), 1);

  // Re-seed the matrix (decay has aged it) so the matcher would migrate
  // again immediately — the first post-rollback decision must instead be
  // suppressed by the exponential damping.
  seed_pairs_matrix(mapper);
  EXPECT_TRUE(mapper.on_barrier(4, 8000, stats_of(3500)).empty());
  EXPECT_GE(mapper.backoff_skips(), 1);
  EXPECT_EQ(mapper.migrations(), 1);
}

TEST(OnlineMapper, CheckpointMidCanaryReplaysBitIdentically) {
  // Acceptance (PR 10): checkpoint/resume while a canary transaction is in
  // flight reproduces the decision sequence — including the rollback —
  // bit-for-bit.
  Machine machine(MachineConfig::harpertown());
  OnlineMapper original(machine, 4, kSplitStart, canary_config());
  seed_pairs_matrix(original);

  ASSERT_FALSE(original.on_barrier(0, 1000, stats_of(1000)).empty());
  original.on_barrier(1, 3000, stats_of(1500));
  const OnlineMapperState snapshot = original.state();
  ASSERT_GT(snapshot.canary_left, 0);  // mid-window

  OnlineMapper resumed(machine, 4, kSplitStart, canary_config());
  resumed.restore(snapshot);
  ASSERT_TRUE(resumed.state() == snapshot);

  // Replay an identical tail into both mappers; every returned placement
  // and every piece of decision state must match exactly.
  const std::uint64_t cycles[] = {5000, 7000, 9000, 11000, 13000};
  const std::uint64_t accesses[] = {2000, 2500, 3500, 4500, 5500};
  bool rolled_back = false;
  for (int i = 0; i < 5; ++i) {
    const auto a = original.on_barrier(2 + i, cycles[i], stats_of(accesses[i]));
    const auto b = resumed.on_barrier(2 + i, cycles[i], stats_of(accesses[i]));
    EXPECT_EQ(a, b) << "diverged at barrier " << 2 + i;
    EXPECT_TRUE(original.state() == resumed.state())
        << "state diverged at barrier " << 2 + i;
    rolled_back = rolled_back || !a.empty();
  }
  EXPECT_TRUE(rolled_back);  // the replayed window did regress
  EXPECT_EQ(original.rollbacks(), resumed.rollbacks());
  EXPECT_EQ(original.rollbacks(), 1);
}

// ---------------------------------------------------------------------------
// The adversarial phase-flip differential (PR 10 acceptance).

TEST(ChurnDifferential, CanarySurvivesAdversarialPhaseFlip) {
  ChurnScenarioConfig cfg;
  // Long shift-0 phase, a 2-barrier shift-1 bait, then the shift-0 tail
  // that punishes whoever chased the bait.
  cfg.shifts = {0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0};
  const ChurnScenarioResult r = run_churn_scenario(cfg);

  // The bait must actually bait: the rollback-disabled arm migrates and is
  // stuck with the flipped placement at the end.
  EXPECT_GE(r.no_rollback.run.migrations, 1);
  EXPECT_EQ(r.no_rollback.run.rollbacks, 0);
  EXPECT_EQ(r.never_remap.run.migrations, 0);

  // Self-correction: the canary arm measures the regression, rolls back,
  // and ends no worse than never remapping — and strictly better than the
  // arm that cannot undo its mistake.
  EXPECT_GE(r.canary.run.rollbacks, 1);
  EXPECT_LE(r.canary.final_cost, r.never_remap.final_cost);
  EXPECT_LT(r.canary.final_cost, r.no_rollback.final_cost);
}

}  // namespace
}  // namespace tlbmap
