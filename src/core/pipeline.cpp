#include "core/pipeline.hpp"

#include <sstream>
#include <stdexcept>

namespace tlbmap {

Pipeline::Pipeline(const MachineConfig& config)
    : config_(config), topology_(config) {
  config_.validate();
}

namespace {

std::vector<std::unique_ptr<ThreadStream>> make_streams(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadStream>> streams;
  streams.reserve(static_cast<std::size_t>(workload.num_threads()));
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    streams.push_back(workload.stream(t, seed));
  }
  return streams;
}

/// Mirrors an injected-fault tally into the metrics registry. Published
/// only when faults actually ran, so faultless runs carry no fault series.
void publish_fault_counters(obs::MetricsRegistry* metrics,
                            const FaultCounters& counters) {
  if (metrics == nullptr) return;
  metrics->counter("fault.injected_dropped_samples")
      .add(counters.dropped_samples);
  metrics->counter("fault.injected_corrupted_samples")
      .add(counters.corrupted_samples);
  metrics->counter("fault.injected_failed_searches")
      .add(counters.failed_searches);
  metrics->counter("fault.injected_skipped_sweeps")
      .add(counters.skipped_sweeps);
  metrics->counter("fault.injected_failed_sweeps")
      .add(counters.failed_sweeps);
  metrics->counter("fault.injected_delayed_sweeps")
      .add(counters.delayed_sweeps);
  metrics->counter("fault.injected_flipped_cells")
      .add(counters.flipped_cells);
  metrics->counter("fault.injected_zeroed_cells").add(counters.zeroed_cells);
  metrics->gauge("pipeline.degraded_mode")
      .set(counters.total() > 0 ? 1.0 : 0.0);
}

}  // namespace

void Pipeline::record_phase(const char* phase, std::uint64_t wall_us,
                            std::uint64_t sim_events) const {
  obs::MetricsRegistry* metrics =
      obs::metrics_at(obs_, obs::ObsLevel::kPhases);
  if (metrics == nullptr) return;
  const obs::Labels labels = {{"phase", phase}};
  // Self-measurement values are wall-clock tagged so the series stream
  // below stays deterministic for a fixed seed.
  metrics->wallclock_histogram("pipeline.phase_wall_us", labels)
      .observe(static_cast<double>(wall_us));
  if (wall_us > 0 && sim_events > 0) {
    metrics->wallclock_gauge("pipeline.sim_events_per_sec", labels)
        .set(static_cast<double>(sim_events) * 1e6 /
             static_cast<double>(wall_us));
  }
  // Phase-boundary sample: taken after publish_stats, so the last sample of
  // a run reflects its final totals (asserted by tests/test_obs.cpp).
  if (metrics_interval_events_ != 0) {
    metrics->sample_series(sim_events, std::string("phase:") + phase);
  }
}

DetectionResult Pipeline::detect(const Workload& workload,
                                 Mechanism mechanism, std::uint64_t seed) {
  if (workload.num_threads() > topology_.num_cores()) {
    throw std::invalid_argument("Pipeline::detect: more threads than cores");
  }
  Machine machine(config_);
  std::unique_ptr<Detector> detector;
  switch (mechanism) {
    case Mechanism::kSoftwareManaged:
      detector = std::make_unique<SmDetector>(
          machine, workload.num_threads(), sm_config_);
      break;
    case Mechanism::kHardwareManaged:
      detector = std::make_unique<HmDetector>(
          machine, workload.num_threads(), hm_config_);
      break;
    case Mechanism::kOracle:
      detector = std::make_unique<OracleDetector>(workload.num_threads(),
                                                  oracle_config_);
      break;
  }
  detector->set_observability(obs_);

  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload.num_threads());
  run.observer = detector.get();
  run.obs = obs_;
  run.metrics_interval_events = metrics_interval_events_;

  DetectionResult result;
  {
    obs::TraceSpan span(obs::tracer_at(obs_, obs::ObsLevel::kPhases),
                        "pipeline.detect", "phase");
    result.stats = machine.run(make_streams(workload, seed), run);
    result.matrix = detector->matrix();
    result.searches = detector->searches();
    result.mechanism = detector->name();
    if (config_.fault.enabled()) {
      FaultCounters injected;
      if (const FaultCounters* c = detector->fault_counters()) injected = *c;
      if (config_.fault.matrix_flip_rate > 0.0 ||
          config_.fault.matrix_zero_rate > 0.0) {
        // Corrupt the *consumed* matrix, not the detector's history: models
        // a faulty read-out of the kernel's accumulated counters.
        FaultInjector matrix_fault(config_.fault, FaultInjector::kMatrixSalt);
        result.matrix.apply_faults(matrix_fault);
        injected.flipped_cells += matrix_fault.counters().flipped_cells;
        injected.zeroed_cells += matrix_fault.counters().zeroed_cells;
      }
      publish_fault_counters(obs::metrics_at(obs_, obs::ObsLevel::kPhases),
                             injected);
    }
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      std::ostringstream args;
      args << "\"app\":\"" << obs::json_escape(workload.name())
           << "\",\"mechanism\":\"" << result.mechanism
           << "\",\"searches\":" << result.searches;
      span.set_args(args.str());
      publish_stats(*metrics, result.stats,
                    {{"phase", "detect"}, {"mechanism", result.mechanism}});
      // End-of-detection heatmap snapshot, tagged with the search count so
      // kFull's periodic snapshots and this final one share an epoch axis.
      metrics->snapshot_matrix("comm_matrix." + result.mechanism,
                               result.searches,
                               result.matrix.upper_rows());
    }
    record_phase("detect", span.elapsed_us(), result.stats.accesses);
  }
  return result;
}

Mapping Pipeline::map(const CommMatrix& matrix) const {
  obs::TraceSpan span(obs::tracer_at(obs_, obs::ObsLevel::kPhases),
                      "pipeline.map", "phase");
  const MappingStrategy resolved =
      resolve_strategy(mapping_config_, matrix, topology_);
  Mapping mapping = map_threads(matrix, topology_, mapping_config_);
  if (obs_ != nullptr && obs_->phases()) {
    obs_->metrics
        .counter("pipeline.map_calls", {{"strategy", to_string(resolved)}})
        .add();
  }
  record_phase("map", span.elapsed_us(), 0);
  return mapping;
}

MachineStats Pipeline::evaluate(const Workload& workload,
                                const Mapping& mapping, std::uint64_t seed) {
  if (!is_valid_mapping(mapping, topology_.num_cores())) {
    throw std::invalid_argument("Pipeline::evaluate: invalid mapping");
  }
  Machine machine(config_);
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  run.obs = obs_;
  run.metrics_interval_events = metrics_interval_events_;
  obs::TraceSpan span(obs::tracer_at(obs_, obs::ObsLevel::kPhases),
                      "pipeline.evaluate", "phase");
  const MachineStats stats = machine.run(make_streams(workload, seed), run);
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    std::ostringstream args;
    args << "\"app\":\"" << obs::json_escape(workload.name())
         << "\",\"sim_cycles\":" << stats.execution_cycles;
    span.set_args(args.str());
    publish_stats(*metrics, stats, {{"phase", "evaluate"}});
  }
  record_phase("evaluate", span.elapsed_us(), stats.accesses);
  return stats;
}

Pipeline::DynamicRunResult Pipeline::evaluate_dynamic(
    const Workload& workload, const Mapping& initial,
    const OnlineMapperConfig& config, std::uint64_t seed) {
  if (!is_valid_mapping(initial, topology_.num_cores())) {
    throw std::invalid_argument("Pipeline::evaluate_dynamic: invalid mapping");
  }
  Machine machine(config_);
  OnlineMapper online(machine, workload.num_threads(), initial, config);
  online.set_observability(obs_);
  Machine::RunConfig run;
  run.thread_to_core = initial;
  run.observer = &online;
  run.migration = &online;
  run.obs = obs_;
  run.metrics_interval_events = metrics_interval_events_;
  DynamicRunResult result;
  obs::TraceSpan span(obs::tracer_at(obs_, obs::ObsLevel::kPhases),
                      "pipeline.dynamic", "phase");
  result.stats = machine.run(make_streams(workload, seed), run);
  result.migrations = online.migrations();
  result.remap_decisions = online.remap_decisions();
  result.degraded_decisions = online.degraded_decisions();
  result.rollbacks = online.rollbacks();
  result.canary_commits = online.canary_commits();
  result.backoff_skips = online.backoff_skips();
  result.phase_epochs = online.phase_epochs();
  result.final_mapping = online.current_mapping();
  if (const FaultCounters* injected = online.fault_counters()) {
    publish_fault_counters(obs::metrics_at(obs_, obs::ObsLevel::kPhases),
                           *injected);
  }
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    std::ostringstream args;
    args << "\"app\":\"" << obs::json_escape(workload.name())
         << "\",\"migrations\":" << result.migrations
         << ",\"remap_decisions\":" << result.remap_decisions;
    span.set_args(args.str());
    publish_stats(*metrics, result.stats, {{"phase", "dynamic"}});
    metrics->snapshot_matrix("comm_matrix.online",
                             static_cast<std::uint64_t>(result.remap_decisions),
                             online.matrix().upper_rows());
  }
  record_phase("dynamic", span.elapsed_us(), result.stats.accesses);
  return result;
}

}  // namespace tlbmap
