// End-to-end tests of the detect -> map -> evaluate pipeline.
#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "npb/synthetic.hpp"

namespace tlbmap {
namespace {

SyntheticSpec pairs_spec() {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 64;  // beyond TLB reach so misses recur
  spec.shared_pages = 4;
  spec.iterations = 6;
  return spec;
}

TEST(Pipeline, DetectSmOnPairs) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  EXPECT_EQ(det.mechanism, "SM");
  EXPECT_GT(det.searches, 0u);
  EXPECT_GT(det.stats.tlb_misses, 0u);
  // The top 4 pairs must be the true partners.
  const auto top = det.matrix.pairs_by_weight();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].first / 2,
              top[static_cast<std::size_t>(i)].second / 2)
        << "rank " << i;
  }
}

TEST(Pipeline, DetectHmOnPairs) {
  Pipeline pipe(MachineConfig::harpertown());
  // HM only sees sharing if a sweep lands while the shared pages are still
  // TLB-resident (the paper's Sec. VI-A explanation of the IS/MG artifacts),
  // so sweep densely and give the workload more iterations to sample.
  pipe.hm_config().interval = 20'000;
  pipe.hm_config().search_cost = 0;
  SyntheticSpec spec = pairs_spec();
  spec.iterations = 12;
  const auto workload = make_synthetic(spec);
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kHardwareManaged);
  EXPECT_EQ(det.mechanism, "HM");
  EXPECT_GT(det.searches, 10u);
  EXPECT_GT(det.matrix.at(0, 1), det.matrix.at(0, 2));
}

TEST(Pipeline, DetectOracleOnPairs) {
  Pipeline pipe(MachineConfig::harpertown());
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kOracle);
  EXPECT_EQ(det.mechanism, "oracle");
  EXPECT_GT(det.matrix.at(2, 3), 0u);
  EXPECT_EQ(det.matrix.at(0, 2), 0u);
  EXPECT_EQ(det.stats.detection_overhead_cycles, 0u);
}

TEST(Pipeline, MapPlacesPartnersOnSharedL2) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  const Mapping mapping = pipe.map(det.matrix);
  EXPECT_TRUE(is_valid_mapping(mapping, 8));
  const Topology& topo = pipe.topology();
  for (int t = 0; t < 8; t += 2) {
    EXPECT_TRUE(topo.share_l2(mapping[static_cast<std::size_t>(t)],
                              mapping[static_cast<std::size_t>(t + 1)]))
        << "pair " << t;
  }
}

TEST(Pipeline, TunedMappingBeatsWorstCase) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  const Mapping tuned = pipe.map(det.matrix);

  // Adversarial mapping: every partner pair split across sockets.
  const Mapping split = {0, 4, 1, 5, 2, 6, 3, 7};
  const MachineStats good = pipe.evaluate(*workload, tuned, 3);
  const MachineStats bad = pipe.evaluate(*workload, split, 3);
  EXPECT_LT(good.execution_cycles, bad.execution_cycles);
  EXPECT_LT(good.invalidations, bad.invalidations);
  EXPECT_LT(good.snoop_transactions, bad.snoop_transactions);
}

TEST(Pipeline, EvaluateRejectsBadMapping) {
  Pipeline pipe(MachineConfig::harpertown());
  const auto workload = make_synthetic(pairs_spec());
  EXPECT_THROW(pipe.evaluate(*workload, Mapping{0, 0, 1, 2, 3, 4, 5, 6}, 1),
               std::invalid_argument);
}

TEST(Pipeline, DetectRejectsTooManyThreads) {
  Pipeline pipe(MachineConfig::tiny());  // 2 cores
  const auto workload = make_synthetic(pairs_spec());  // 8 threads
  EXPECT_THROW(
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged),
      std::invalid_argument);
}

TEST(Pipeline, DetectionDeterministicPerSeed) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  const auto workload = make_synthetic(pairs_spec());
  const auto d1 =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 5);
  const auto d2 =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 5);
  EXPECT_NEAR(CommMatrix::cosine_similarity(d1.matrix, d2.matrix), 1.0,
              1e-12);
  EXPECT_EQ(d1.stats.execution_cycles, d2.stats.execution_cycles);
}

TEST(Pipeline, SmOverheadAccountedInStats) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  pipe.sm_config().search_cost = 1000;
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  // Overhead is reported on the critical path (max per-thread), so it is
  // bounded by the total charge and positive.
  EXPECT_GT(det.stats.detection_overhead_cycles, 0u);
  EXPECT_LE(det.stats.detection_overhead_cycles, det.searches * 1000);
  EXPECT_GT(det.stats.overhead_fraction(), 0.0);
  EXPECT_LT(det.stats.overhead_fraction(), 1.0);
}

TEST(PipelineObs, PhasesLevelRecordsSpansMetricsAndSnapshot) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  pipe.set_observability(&ctx);
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  const Mapping mapping = pipe.map(det.matrix);
  pipe.evaluate(*workload, mapping, 1);

  // Spans: one per phase plus the machine runs.
  std::vector<std::string> names;
  for (const auto& ev : ctx.tracer.snapshot()) names.push_back(ev.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "pipeline.detect"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pipeline.map"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pipeline.evaluate"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "machine.run"),
            names.end());

  // Metrics: detector searches and the machine counters, labeled.
  EXPECT_EQ(ctx.metrics.counter_value("detector.searches",
                                      {{"mechanism", "SM"}}),
            det.searches);
  EXPECT_EQ(ctx.metrics.counter_value(
                "sim.accesses", {{"phase", "detect"}, {"mechanism", "SM"}}),
            det.stats.accesses);
  EXPECT_EQ(ctx.metrics
                .histogram("pipeline.phase_wall_us", {{"phase", "detect"}})
                .count(),
            1u);

  // At least one end-of-detection communication-matrix snapshot.
  const auto snaps = ctx.metrics.matrix_snapshots();
  ASSERT_FALSE(snaps.empty());
  EXPECT_EQ(snaps[0].name, "comm_matrix.SM");
  EXPECT_EQ(snaps[0].matrix.n, det.matrix.size());
  EXPECT_EQ(snaps[0].matrix.nonzeros(), det.matrix.upper_rows().nonzeros());
}

TEST(PipelineObs, OffLevelRecordsNothing) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kOff;
  pipe.set_observability(&ctx);
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  pipe.map(det.matrix);
  EXPECT_EQ(ctx.tracer.recorded(), 0u);
  EXPECT_TRUE(ctx.metrics.matrix_snapshots().empty());
  EXPECT_EQ(ctx.metrics.counter_value("detector.searches",
                                      {{"mechanism", "SM"}}),
            0u);
}

TEST(PipelineObs, ObservabilityDoesNotPerturbSimulation) {
  const auto workload = make_synthetic(pairs_spec());
  Pipeline plain(MachineConfig::harpertown());
  plain.sm_config().sample_threshold = 1;
  const auto base =
      plain.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 5);

  Pipeline observed(MachineConfig::harpertown());
  observed.sm_config().sample_threshold = 1;
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kFull;
  observed.set_observability(&ctx);
  const auto traced =
      observed.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 5);

  EXPECT_EQ(base.stats.execution_cycles, traced.stats.execution_cycles);
  EXPECT_EQ(base.searches, traced.searches);
  EXPECT_NEAR(CommMatrix::cosine_similarity(base.matrix, traced.matrix), 1.0,
              1e-12);
  // kFull additionally emitted per-search instants.
  EXPECT_GT(ctx.tracer.recorded(), 0u);
}

TEST(PipelineObs, IntervalSeriesMonotonicWithFinalSampleEqualTotals) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 1;
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  pipe.set_observability(&ctx);
  pipe.set_metrics_interval_events(2000);
  const auto workload = make_synthetic(pairs_spec());
  const DetectionResult det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);

  const auto samples = ctx.metrics.series().samples();
  ASSERT_GE(samples.size(), 2u);
  auto gauge_at = [](const obs::SeriesSample& s, const std::string& key) {
    for (const auto& [k, v] : s.gauges) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "gauge " << key << " missing from sample " << s.index;
    return 0.0;
  };
  bool saw_interval = false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, i);  // dense, monotonic sample index
    if (samples[i].reason == "interval") saw_interval = true;
    if (i == 0) continue;
    // The stream is monotonic: simulated-event stamps and every progress
    // gauge only move forward.
    EXPECT_GE(samples[i].sim_events, samples[i - 1].sim_events);
    EXPECT_GE(gauge_at(samples[i], "machine.events_issued"),
              gauge_at(samples[i - 1], "machine.events_issued"));
    EXPECT_GE(gauge_at(samples[i], "machine.accesses"),
              gauge_at(samples[i - 1], "machine.accesses"));
    EXPECT_GE(gauge_at(samples[i], "machine.sim_cycles"),
              gauge_at(samples[i - 1], "machine.sim_cycles"));
  }
  EXPECT_TRUE(saw_interval);

  // The pipeline's phase-boundary sample closes the stream, and its values
  // equal the end-of-run totals the caller sees in DetectionResult.
  const obs::SeriesSample& last = samples.back();
  EXPECT_EQ(last.reason, "phase:detect");
  EXPECT_DOUBLE_EQ(gauge_at(last, "machine.accesses"),
                   static_cast<double>(det.stats.accesses));
  EXPECT_DOUBLE_EQ(gauge_at(last, "machine.sim_cycles"),
                   static_cast<double>(det.stats.execution_cycles));
  bool found_counter = false;
  for (const auto& [key, value] : last.counters) {
    if (key == "sim.accesses{mechanism=SM,phase=detect}") {
      EXPECT_EQ(value, det.stats.accesses);
      found_counter = true;
    }
  }
  EXPECT_TRUE(found_counter);
}

TEST(PipelineObs, SeriesExportByteIdenticalAcrossRuns) {
  // Same seed + same interval => byte-identical series export. Wall-clock
  // self-measurement metrics exist in both registries but are excluded from
  // the sampled stream, so run-to-run timing noise cannot leak in.
  const auto workload = make_synthetic(pairs_spec());
  auto run_once = [&workload] {
    Pipeline pipe(MachineConfig::harpertown());
    pipe.sm_config().sample_threshold = 1;
    obs::ObsContext ctx;
    ctx.level = obs::ObsLevel::kPhases;
    pipe.set_observability(&ctx);
    pipe.set_metrics_interval_events(1000);
    const DetectionResult det =
        pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 7);
    const Mapping mapping = pipe.map(det.matrix);
    pipe.evaluate(*workload, mapping, 1);
    std::ostringstream out;
    ctx.metrics.series().export_jsonl(out);
    return out.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tlbmap
