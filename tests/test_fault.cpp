// Differential tests for the fault-injection harness and the
// graceful-degradation layer (DESIGN.md Sec. 11).
//
// The contract under test, in order of importance:
//   1. Faults OFF is bit-identical to a build without the subsystem: a
//      zero-rate plan takes zero extra PRNG draws and changes no counter.
//   2. Faults ON is deterministic per seed: same plan, same results.
//   3. No fault configuration makes the pipeline throw or die — it
//      degrades (worse mapping, degraded-decision fallbacks) instead.
//   4. Degraded quality is bounded: at paper-level fault rates the
//      detected mapping is never worse than the OS-scheduler baseline.
#include <limits>

#include <gtest/gtest.h>

#include "core/dynamic.hpp"
#include "core/pipeline.hpp"
#include "mapping/mapping.hpp"
#include "npb/synthetic.hpp"
#include "sim/machine.hpp"

namespace tlbmap {
namespace {

SyntheticSpec pairs_spec() {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.num_threads = 8;
  spec.iterations = 2;
  return spec;
}

/// The pipeline's default detector knobs are paper-scale (1-in-100
/// sampling, 10M-cycle sweeps) — far too coarse for these synthetic traces
/// of a few hundred thousand cycles. Scale them down so detection has
/// signal to degrade in the first place.
void scale_detectors(Pipeline& pipe) {
  pipe.sm_config() =
      SmDetectorConfig{/*sample_threshold=*/10, /*search_cost=*/231};
  pipe.hm_config() =
      HmDetectorConfig{/*interval=*/50'000, /*search_cost=*/3'372};
}

/// Paper-level noise: detection is already approximate (1-in-100 sampling),
/// so a few-percent fault rate on top models a flaky TLB readout.
FaultPlan paper_level_plan(std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_sample_rate = 0.05;
  plan.corrupt_sample_rate = 0.02;
  plan.detect_fail_rate = 0.02;
  return plan;
}

FaultPlan aggressive_plan(std::uint64_t seed = 99) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_sample_rate = 0.5;
  plan.corrupt_sample_rate = 0.5;
  plan.detect_fail_rate = 0.5;
  plan.sweep_skip_rate = 0.4;
  plan.sweep_fail_rate = 0.4;
  plan.sweep_delay_max = 100'000;
  plan.matrix_flip_rate = 0.5;
  plan.matrix_zero_rate = 0.5;
  return plan;
}

TEST(FaultPlan, ValidateRejectsBadRates) {
  FaultPlan plan;
  plan.drop_sample_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.matrix_zero_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.sweep_fail_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  EXPECT_NO_THROW(aggressive_plan().validate());
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_TRUE(paper_level_plan().enabled());
}

TEST(FaultInjector, DeterministicPerSeedAndSalt) {
  const FaultPlan plan = aggressive_plan(123);
  FaultInjector a(plan, FaultInjector::kSmSalt);
  FaultInjector b(plan, FaultInjector::kSmSalt);
  FaultInjector other_salt(plan, FaultInjector::kHmSalt);
  int agree = 0, diverge = 0;
  for (int i = 0; i < 256; ++i) {
    const bool da = a.drop_sample();
    const bool db = b.drop_sample();
    EXPECT_EQ(da, db) << "draw " << i;
    if (da == other_salt.drop_sample()) {
      ++agree;
    } else {
      ++diverge;
    }
  }
  EXPECT_EQ(a.counters().dropped_samples, b.counters().dropped_samples);
  EXPECT_GT(a.counters().dropped_samples, 0u);
  // Distinct salts give independent streams: they must not track each other.
  EXPECT_GT(diverge, 0);
  EXPECT_GT(agree, 0);
}

TEST(FaultDifferential, ZeroRatePlanIsBitIdentical) {
  // A plan with a seed but all-zero rates must be byte-for-byte the same
  // run as no plan at all — the injector is never even constructed.
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig plain = MachineConfig();
  MachineConfig zeroed = MachineConfig();
  zeroed.fault.seed = 0xDEADBEEF;  // seed alone must not enable anything

  for (const auto mechanism : {Pipeline::Mechanism::kSoftwareManaged,
                               Pipeline::Mechanism::kHardwareManaged}) {
    Pipeline a(plain), b(zeroed);
    scale_detectors(a);
    scale_detectors(b);
    const DetectionResult da = a.detect(*workload, mechanism, /*seed=*/3);
    const DetectionResult db = b.detect(*workload, mechanism, /*seed=*/3);
    EXPECT_TRUE(da.stats == db.stats);
    EXPECT_EQ(da.searches, db.searches);
    EXPECT_EQ(da.matrix, db.matrix);
    const Mapping ma = a.map(da.matrix);
    const Mapping mb = b.map(db.matrix);
    EXPECT_EQ(ma, mb);
    EXPECT_TRUE(a.evaluate(*workload, ma, 3) == b.evaluate(*workload, mb, 3));
  }

  // A plan whose only non-zero rate is matrix noise engages the HM
  // detector's injector, but no sweep fault can fire: HM detection must
  // sweep on exactly the faultless cadence and stall the same cycles.
  MachineConfig flips = MachineConfig();
  flips.fault.seed = 0xDEADBEEF;
  flips.fault.matrix_flip_rate = 0.5;
  ASSERT_TRUE(flips.fault.enabled());
  Pipeline a(plain), c(flips);
  scale_detectors(a);
  scale_detectors(c);
  const DetectionResult da =
      a.detect(*workload, Pipeline::Mechanism::kHardwareManaged, 3);
  const DetectionResult dc =
      c.detect(*workload, Pipeline::Mechanism::kHardwareManaged, 3);
  EXPECT_GT(da.searches, 0u);
  EXPECT_EQ(da.searches, dc.searches);
  EXPECT_TRUE(da.stats == dc.stats);
}

TEST(FaultDifferential, FaultsOnIsDeterministicPerSeed) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault = aggressive_plan(11);

  for (const auto mechanism : {Pipeline::Mechanism::kSoftwareManaged,
                               Pipeline::Mechanism::kHardwareManaged}) {
    Pipeline a(faulty), b(faulty);
    scale_detectors(a);
    scale_detectors(b);
    const DetectionResult da = a.detect(*workload, mechanism, 3);
    const DetectionResult db = b.detect(*workload, mechanism, 3);
    EXPECT_TRUE(da.stats == db.stats);
    EXPECT_EQ(da.matrix, db.matrix);
    EXPECT_EQ(a.map(da.matrix), b.map(db.matrix));
  }

  // A different seed must (with overwhelming probability at these rates)
  // detect a different matrix.
  MachineConfig reseeded = faulty;
  reseeded.fault.seed = 12;
  Pipeline a(faulty), c(reseeded);
  scale_detectors(a);
  scale_detectors(c);
  const auto ra = a.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 3);
  const auto rc = c.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 3);
  EXPECT_NE(ra.matrix, rc.matrix);
}

TEST(FaultDifferential, AggressiveFaultsNeverThrow) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault = aggressive_plan();
  for (const auto mechanism : {Pipeline::Mechanism::kSoftwareManaged,
                               Pipeline::Mechanism::kHardwareManaged}) {
    Pipeline pipe(faulty);
    scale_detectors(pipe);
    DetectionResult det;
    ASSERT_NO_THROW(det = pipe.detect(*workload, mechanism, 5));
    Mapping mapping;
    ASSERT_NO_THROW(mapping = pipe.map(det.matrix));
    EXPECT_TRUE(is_valid_mapping(mapping, pipe.topology().num_cores()));
    ASSERT_NO_THROW(pipe.evaluate(*workload, mapping, 5));
  }
}

TEST(FaultDifferential, DetectedMappingNeverWorseThanOsBaseline) {
  // At paper-level fault rates the degraded SM mapping must still beat (or
  // tie) the fault-free OS-scheduler baseline: random placement re-rolled
  // per repetition, exactly like the suite's OS arm.
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault = paper_level_plan();
  Pipeline pipe(faulty);
  scale_detectors(pipe);
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 3);
  const Mapping mapping = pipe.map(det.matrix);
  ASSERT_TRUE(is_valid_mapping(mapping, pipe.topology().num_cores()));
  const MachineStats sm = pipe.evaluate(*workload, mapping, 3);

  Pipeline clean((MachineConfig()));
  double os_mean_cycles = 0;
  const int reps = 4;
  for (int r = 0; r < reps; ++r) {
    const Mapping os = random_mapping(workload->num_threads(),
                                      clean.topology().num_cores(),
                                      static_cast<std::uint64_t>(100 + r));
    os_mean_cycles += static_cast<double>(
        clean.evaluate(*workload, os, 3).execution_cycles);
  }
  os_mean_cycles /= reps;
  EXPECT_LE(static_cast<double>(sm.execution_cycles), os_mean_cycles * 1.02)
      << "faulty-detected mapping lost to the OS baseline";
}

TEST(FaultDifferential, HmSweepFaultsStillDetectSignal) {
  // Sweep skip/fail/delay lose epochs but the surviving sweeps must still
  // find the dominant pairs at moderate rates.
  SyntheticSpec spec = pairs_spec();
  spec.iterations = 4;
  const auto workload = make_synthetic(spec);
  MachineConfig faulty = MachineConfig();
  faulty.fault.seed = 21;
  faulty.fault.sweep_skip_rate = 0.25;
  faulty.fault.sweep_fail_rate = 0.25;
  faulty.fault.sweep_delay_max = 50'000;
  Pipeline pipe(faulty);
  // The whole trace runs ~400k cycles: sweep every 25k so there are enough
  // epochs that a 25% skip/fail rate cannot plausibly lose all of them.
  pipe.hm_config() = HmDetectorConfig{/*interval=*/25'000,
                                      /*search_cost=*/3'372};
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kHardwareManaged, 3);
  EXPECT_GT(det.matrix.total(), 0u) << "all sweeps lost at a 25% rate";
  EXPECT_TRUE(is_valid_mapping(pipe.map(det.matrix),
                               pipe.topology().num_cores()));
}

TEST(Watchdog, OffAndHugeBudgetAreBitIdentical) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig off = MachineConfig();
  MachineConfig huge = MachineConfig();
  huge.watchdog_max_events = ~std::uint64_t{0};
  Pipeline a(off), b(huge);
  const Mapping id = identity_mapping(workload->num_threads());
  EXPECT_TRUE(a.evaluate(*workload, id, 3) == b.evaluate(*workload, id, 3));
}

TEST(Watchdog, TinyBudgetIsAStructuredError) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig cfg = MachineConfig();
  cfg.watchdog_max_events = 100;  // far below the workload's event count
  Machine machine(cfg);
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload->num_threads(); ++t) {
    streams.push_back(workload->stream(t, 3));
  }
  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  const Expected<MachineStats> result =
      machine.try_run(std::move(streams), run);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kWatchdogTimeout);
  EXPECT_NE(result.error().message.find("watchdog"), std::string::npos);
}

TEST(Watchdog, RunWrapperThrowsRuntimeError) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig cfg = MachineConfig();
  cfg.watchdog_max_events = 100;
  Machine machine(cfg);
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload->num_threads(); ++t) {
    streams.push_back(workload->stream(t, 3));
  }
  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  EXPECT_THROW(machine.run(std::move(streams), run), std::runtime_error);
}

TEST(OnlineDegradation, ZeroedMatrixFallsBackNotThrows) {
  // matrix_zero_rate 1.0 makes every online decision degenerate: the
  // mapper must fall back to the previous placement every time, count the
  // degraded decisions, and never migrate on noise.
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault.seed = 5;
  faulty.fault.matrix_zero_rate = 1.0;
  Pipeline pipe(faulty);
  OnlineMapperConfig online;
  online.remap_every_barriers = 1;
  online.min_matrix_total = 1;
  const Mapping initial = identity_mapping(workload->num_threads());
  Pipeline::DynamicRunResult result;
  ASSERT_NO_THROW(result = pipe.evaluate_dynamic(*workload, initial, online, 3));
  EXPECT_GT(result.degraded_decisions, 0);
  EXPECT_EQ(result.migrations, 0);
  EXPECT_EQ(result.final_mapping, initial);
}

TEST(OnlineDegradation, CooldownCurbssMigrationsUnderFlipNoise) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault.seed = 17;
  faulty.fault.matrix_flip_rate = 0.35;

  auto run_with_cooldown = [&](int cooldown) {
    Pipeline pipe(faulty);
    OnlineMapperConfig online;
    online.remap_every_barriers = 1;
    online.min_matrix_total = 1;
    online.improvement_threshold = 0.0;  // let the noise through
    online.migration_cooldown = cooldown;
    return pipe.evaluate_dynamic(
        *workload, identity_mapping(workload->num_threads()), online, 3);
  };
  const auto loose = run_with_cooldown(0);
  const auto damped = run_with_cooldown(1'000'000);
  EXPECT_LE(damped.migrations, loose.migrations);
  EXPECT_LE(damped.migrations, 1) << "cooldown must block repeat migrations";
}

TEST(FaultCountersTally, DetectorReportsInjections) {
  const auto workload = make_synthetic(pairs_spec());
  MachineConfig faulty = MachineConfig();
  faulty.fault = aggressive_plan(31);
  Machine machine(faulty);
  SmDetector detector(machine, workload->num_threads(),
                      SmDetectorConfig{/*sample_threshold=*/10,
                                       /*search_cost=*/231});
  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  run.observer = &detector;
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload->num_threads(); ++t) {
    streams.push_back(workload->stream(t, 3));
  }
  machine.run(std::move(streams), run);
  const FaultCounters* counters = detector.fault_counters();
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->total(), 0u);
  EXPECT_GT(counters->dropped_samples, 0u);

  // Faultless detector exposes no counters at all.
  Machine clean((MachineConfig()));
  SmDetector quiet(clean, workload->num_threads(),
                   SmDetectorConfig{10, 231});
  EXPECT_EQ(quiet.fault_counters(), nullptr);
}

}  // namespace
}  // namespace tlbmap
