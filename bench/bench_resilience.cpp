// Engineering bench: cost of the resilience layer (google-benchmark).
//
// Not a paper artefact — this prices DESIGN.md Sec. 11: what the
// fault-injection hooks cost when faults are OFF (target: < 2% against a
// run that predates the subsystem — the hooks are a null-pointer check per
// access and a branch per tick), what a fault-laden run costs, and what the
// watchdog / online quality gate add. CI's fault-matrix job publishes the
// JSON as BENCH_resilience.json for cross-commit comparison.
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/dynamic.hpp"
#include "core/pipeline.hpp"
#include "detect/sm_detector.hpp"
#include "npb/synthetic.hpp"
#include "sim/machine.hpp"

namespace {

using namespace tlbmap;

SyntheticSpec bench_spec() {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.num_threads = 8;
  spec.private_pages = 64;
  spec.shared_pages = 8;
  spec.iterations = 2;
  return spec;
}

FaultPlan paper_level_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_sample_rate = 0.05;
  plan.corrupt_sample_rate = 0.02;
  plan.detect_fail_rate = 0.02;
  plan.matrix_flip_rate = 0.01;
  return plan;
}

/// One SM detection run; returns simulated accesses for the throughput
/// counter so the faults-off/faults-on comparison is per-access.
std::uint64_t detect_once(const MachineConfig& config) {
  static const auto workload = make_synthetic(bench_spec());
  Machine machine(config);
  SmDetector detector(machine, workload->num_threads(),
                      SmDetectorConfig{/*sample_threshold=*/10,
                                       /*search_cost=*/231});
  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  run.observer = &detector;
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload->num_threads(); ++t) {
    streams.push_back(workload->stream(t, 1));
  }
  const MachineStats stats = machine.run(std::move(streams), run);
  benchmark::DoNotOptimize(detector.matrix().total());
  return stats.accesses;
}

/// Baseline: the faults-off hot path. The fault plan is default (disabled),
/// the watchdog off — this is the configuration every figure bench runs,
/// and the number the < 2% overhead target is measured against.
void BM_DetectFaultsOff(benchmark::State& state) {
  const MachineConfig config = MachineConfig();
  std::uint64_t accesses = 0;
  for (auto _ : state) accesses += detect_once(config);
  state.counters["accesses_per_sec"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectFaultsOff);

/// Paper-level fault rates: per-sample PRNG draws plus matrix corruption.
void BM_DetectPaperLevelFaults(benchmark::State& state) {
  MachineConfig config = MachineConfig();
  config.fault = paper_level_plan();
  std::uint64_t accesses = 0;
  for (auto _ : state) accesses += detect_once(config);
  state.counters["accesses_per_sec"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectPaperLevelFaults);

/// Watchdog armed (huge budget, never trips): prices the per-event counter
/// increment and branch on the Machine::run hot loop.
void BM_DetectWatchdogArmed(benchmark::State& state) {
  MachineConfig config = MachineConfig();
  config.watchdog_max_events = ~std::uint64_t{0};
  std::uint64_t accesses = 0;
  for (auto _ : state) accesses += detect_once(config);
  state.counters["accesses_per_sec"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectWatchdogArmed);

/// Online mapping with the quality gate exercised: matrix faults force
/// degraded decisions (health check + fallback) at every remap barrier.
void BM_DynamicDegradedDecisions(benchmark::State& state) {
  MachineConfig config = MachineConfig();
  config.fault.seed = 5;
  config.fault.matrix_zero_rate = 1.0;
  const auto workload = make_synthetic(bench_spec());
  OnlineMapperConfig online;
  online.remap_every_barriers = 1;
  online.min_matrix_total = 1;
  int degraded = 0;
  for (auto _ : state) {
    Pipeline pipe(config);
    const auto result = pipe.evaluate_dynamic(
        *workload, identity_mapping(workload->num_threads()), online, 1);
    degraded += result.degraded_decisions;
    benchmark::DoNotOptimize(result.stats.execution_cycles);
  }
  state.counters["degraded_decisions"] =
      static_cast<double>(degraded) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DynamicDegradedDecisions);

/// Comm-matrix health check alone: a scan of the allocated tiles (every
/// pair is set here, so O(n^2)), priced so the per-decision cost of the
/// online gate is visible in isolation.
void BM_MatrixHealthCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      m.add(a, b, static_cast<std::uint64_t>(a + b + 1));
    }
  }
  for (auto _ : state) {
    const CommMatrix::Health health = m.health();
    benchmark::DoNotOptimize(health);
  }
}
BENCHMARK(BM_MatrixHealthCheck)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
