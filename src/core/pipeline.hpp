// The library's top-level API: detect -> map -> evaluate.
//
//   Pipeline pipe(MachineConfig::harpertown());
//   auto workload = make_npb_workload("SP");
//   auto det = pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
//   Mapping mapping = pipe.map(det.matrix);
//   MachineStats run = pipe.evaluate(*workload, mapping, /*seed=*/0);
//
// Detection executes the workload on the simulated machine with the
// detector attached (threads pinned in identity order, as in the paper's
// Simics phase); evaluation re-runs it under a candidate mapping and
// reports the coherence/timing counters of Figures 6-9.
#pragma once

#include <cstdint>
#include <memory>

#include "core/dynamic.hpp"
#include "detect/comm_matrix.hpp"
#include "detect/hm_detector.hpp"
#include "detect/oracle_detector.hpp"
#include "detect/sm_detector.hpp"
#include "mapping/hierarchical.hpp"
#include "mapping/mapping.hpp"
#include "mapping/strategy.hpp"
#include "npb/workload.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"

namespace tlbmap {

struct DetectionResult {
  CommMatrix matrix;
  MachineStats stats;            ///< counters of the detection run
  std::uint64_t searches = 0;    ///< detector search invocations
  std::string mechanism;         ///< "SM" / "HM" / "oracle"

  DetectionResult() : matrix(1) {}

  bool operator==(const DetectionResult&) const = default;
};

class Pipeline {
 public:
  enum class Mechanism {
    kSoftwareManaged,  ///< paper Sec. IV-A
    kHardwareManaged,  ///< paper Sec. IV-B
    kOracle,           ///< full-trace ground truth (related work)
  };

  explicit Pipeline(const MachineConfig& config);

  /// Runs `workload` once with the selected detector attached and returns
  /// the detected communication matrix plus run statistics.
  DetectionResult detect(const Workload& workload, Mechanism mechanism,
                         std::uint64_t seed = 1);

  // Detector knobs (defaults are the paper's parameters).
  SmDetectorConfig& sm_config() { return sm_config_; }
  HmDetectorConfig& hm_config() { return hm_config_; }
  OracleDetectorConfig& oracle_config() { return oracle_config_; }

  /// Mapping algorithm selection (default kAuto: Edmonds at small thread
  /// counts, recursive multisection at manycore scale or on topologies the
  /// matching mapper cannot tile).
  MappingConfig& mapping_config() { return mapping_config_; }
  const MappingConfig& mapping_config() const { return mapping_config_; }

  /// Thread-to-core mapping from a communication matrix, via the strategy
  /// mapping_config() selects.
  Mapping map(const CommMatrix& matrix) const;

  /// Runs `workload` under `mapping` with no detector and returns counters.
  MachineStats evaluate(const Workload& workload, const Mapping& mapping,
                        std::uint64_t seed);

  /// Result of a dynamically mapped run (detection + migration online).
  struct DynamicRunResult {
    MachineStats stats;
    int migrations = 0;          ///< placements actually changed
    int remap_decisions = 0;     ///< matcher invocations
    int degraded_decisions = 0;  ///< decisions fallen back on degenerate input
    int rollbacks = 0;           ///< canary windows reverted (DESIGN.md Sec. 17)
    int canary_commits = 0;      ///< canary windows that kept their migration
    int backoff_skips = 0;       ///< remap decisions suppressed by backoff
    std::uint64_t phase_epochs = 0;  ///< phase-change epochs detected
    Mapping final_mapping;
  };

  /// Runs `workload` with the OnlineMapper attached: the SM mechanism
  /// detects while the application runs, and threads migrate at barriers
  /// whenever the matcher finds a better placement (paper Sec. VII future
  /// work). Starts from `initial` (e.g. identity or a random placement).
  DynamicRunResult evaluate_dynamic(const Workload& workload,
                                    const Mapping& initial,
                                    const OnlineMapperConfig& config,
                                    std::uint64_t seed);

  const MachineConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }

  /// Attaches an observability context (null detaches, the default). Every
  /// phase then records a span ("pipeline.detect" / "pipeline.map" /
  /// "pipeline.evaluate" / "pipeline.dynamic"), publishes phase wall-clock
  /// and simulated-throughput metrics, and snapshots the detected
  /// communication matrix. The context must outlive the pipeline's calls.
  void set_observability(obs::ObsContext* obs) { obs_ = obs; }
  obs::ObsContext* observability() const { return obs_; }

  /// Epoch-bucketed telemetry (DESIGN.md Sec. 13): forwarded to
  /// Machine::RunConfig as the interval between "interval" series samples,
  /// and when nonzero every phase boundary also captures a "phase:<name>"
  /// sample *after* the phase's counters publish — so the final sample of a
  /// run always equals its end-of-run totals. 0 (default) disables the
  /// series stream entirely; exports are unchanged.
  void set_metrics_interval_events(std::uint64_t n) {
    metrics_interval_events_ = n;
  }
  std::uint64_t metrics_interval_events() const {
    return metrics_interval_events_;
  }

 private:
  /// Phase bookkeeping shared by detect/map/evaluate/evaluate_dynamic:
  /// duration histogram + events/sec gauge keyed by phase name (wall-clock
  /// tagged), plus the phase-boundary series sample when enabled.
  void record_phase(const char* phase, std::uint64_t wall_us,
                    std::uint64_t sim_events) const;

  MachineConfig config_;
  Topology topology_;
  SmDetectorConfig sm_config_{};
  HmDetectorConfig hm_config_{};
  OracleDetectorConfig oracle_config_{};
  MappingConfig mapping_config_{};
  obs::ObsContext* obs_ = nullptr;
  std::uint64_t metrics_interval_events_ = 0;
};

}  // namespace tlbmap
