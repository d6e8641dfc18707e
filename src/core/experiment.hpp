// The paper's full evaluation as a reusable harness.
//
// run_suite() reproduces the experimental protocol of Sections V/VI for a
// set of NPB workloads: detect the communication matrix with SM, HM and the
// full-trace oracle; derive SM/HM thread mappings with the hierarchical
// Edmonds matcher; then run `repetitions` performance runs per mapping.
// The OS baseline re-rolls a random placement every repetition (an unaware
// scheduler), which is also what gives it the paper's high variance.
//
// Because several bench binaries consume the same suite (Figures 6-9,
// Tables IV/V), results are cached on disk keyed by a config hash. A cache
// entry is a completed suite checkpoint (`suite_v<schema>_<hash>.ckpt`, the
// TLBK format of core/checkpoint.hpp), and a hit replays it through the
// same detect/map/evaluate phases a resume uses. Each cache write deletes
// the entries of other schema versions, which no build of this one reads. Set TLBMAP_NO_CACHE=1 (or
// use_cache=false) to force recomputation, and TLBMAP_CACHE_DIR to relocate
// the cache (default /tmp/tlbmap_cache).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/expected.hpp"
#include "core/pipeline.hpp"
#include "sim/stats.hpp"

namespace tlbmap {

struct SuiteConfig {
  MachineConfig machine{};  // Harpertown defaults (Table II / Fig. 3)
  WorkloadParams workload{};
  std::vector<std::string> apps = npb_workload_names();
  int repetitions = 8;
  /// Detector knobs, scaled to the short traces: the paper's runs last
  /// billions of cycles with millions of TLB misses, ours millions of cycles
  /// with tens of thousands of misses. Sampling 1-in-10 (instead of the
  /// paper's 1-in-100) and sweeping every 400k cycles (instead of every 10M,
  /// with the sweep cost scaled by the same 25x to preserve the ~0.84 %
  /// overhead ratio) restores a comparable number of detection events.
  /// bench_table3 additionally reports the overheads at the paper's
  /// unscaled parameters, computed from the measured miss counts.
  SmDetectorConfig sm{/*sample_threshold=*/10, /*search_cost=*/231};
  HmDetectorConfig hm{/*interval=*/400'000, /*search_cost=*/3'372};
  OracleDetectorConfig oracle{};
  /// Mapping algorithm for phase 2 (default kAuto: Edmonds matching below
  /// the threshold, recursive multisection at manycore thread counts).
  MappingConfig mapping{};
  /// Detection runs use iter_scale multiplied by this factor: the paper
  /// detects over the application's full execution, and longer detection
  /// traces stand in for that.
  double detect_iter_scale = 4.0;
  std::uint64_t base_seed = 42;
  bool use_cache = true;
  /// Worker threads for the independent simulation runs. The suite executes
  /// as three global phases — detect, map, evaluate — and the detect and
  /// evaluate phases each drain every app's runs through one shared pool of
  /// this size (suite-wide, not per app: a short app's tail overlaps a long
  /// app's head). 0 = one per hardware core. Results are bit-identical
  /// regardless of the worker count — each run simulates its own Machine
  /// and writes its own preassigned slot.
  int parallel_workers = 0;
  /// Crash safety (DESIGN.md Sec. 12). When non-empty, suite progress is
  /// checkpointed to `<checkpoint_dir>/suite.ckpt` as tasks complete: on
  /// SIGINT/SIGTERM (with shutdown handlers installed) or a crash, a later
  /// run with `resume = true` skips every completed task and — because all
  /// seeds and result slots are preassigned — produces a SuiteResult
  /// bit-identical to an uninterrupted run. The file is rewritten after
  /// every completed task and removed once the suite completes. Neither
  /// this field nor `resume` enters the cache key or the config hash: they
  /// change durability, not results.
  std::string checkpoint_dir;
  /// Load `<checkpoint_dir>/suite.ckpt` and continue from it. A missing,
  /// corrupt or config-mismatched checkpoint is reported (structured error
  /// in the progress stream, `checkpoint.rejected` metric) and the suite
  /// falls back to a fresh run — resume never aborts and never crashes.
  bool resume = false;
  /// Observability (DESIGN.md Sec. 13). Like the crash-safety knobs, the
  /// two fields below never enter the cache key or config hash: they change
  /// what a run records about itself, not its results.
  ///
  /// Series sampling interval, forwarded to every worker Pipeline
  /// (Pipeline::set_metrics_interval_events); the suite additionally
  /// captures one "phase:suite.<name>" sample after each of its three
  /// global phases. 0 (default) = series stream off. With
  /// parallel_workers > 1 the *ordering* of interval samples from
  /// concurrent runs interleaves nondeterministically; the byte-identical
  /// series guarantee holds for single-worker suites and plain Pipeline
  /// runs.
  std::uint64_t metrics_interval_events = 0;
  /// When non-empty, the suite writes a run manifest — provenance, wall/CPU
  /// cost, peak RSS, per-phase attribution, collapsed flamegraph stacks
  /// (obs/selfprof.hpp) — to this path via atomic_write_file, on every exit
  /// path: clean, cached, degraded and interrupted.
  std::string manifest_out;
};

/// Repeated performance runs under one mapping policy.
struct MappingRuns {
  std::string label;  ///< "OS" / "SM" / "HM"
  std::vector<MachineStats> runs;

  bool operator==(const MappingRuns&) const = default;
};

/// Which scalar a summary extracts from a run. Figures 7-9 normalise raw
/// event counts; Table IV reports the per-second rates.
enum class Metric {
  kTimeSeconds,
  kInvalidations,
  kSnoops,
  kL2Misses,
  kInvalidationsPerSec,
  kSnoopsPerSec,
  kL2MissesPerSec,
};

double metric_value(const MachineStats& stats, Metric metric);
Summary summarize_runs(const MappingRuns& runs, Metric metric);

struct AppExperiment {
  std::string app;
  DetectionResult sm_detection;
  DetectionResult hm_detection;
  DetectionResult oracle_detection;
  Mapping sm_mapping;
  Mapping hm_mapping;
  MappingRuns os_runs, sm_runs, hm_runs;

  /// mean(metric under mapping) / mean(metric under OS) — the normalised
  /// bars of Figures 6-9.
  double normalized(const MappingRuns& runs, Metric metric) const;

  bool operator==(const AppExperiment&) const = default;
};

struct SuiteResult {
  SuiteConfig config;
  std::vector<AppExperiment> apps;
  /// Structured failures of suite tasks that exhausted their retries (empty
  /// on a clean run). Each failed task's result slot holds default values;
  /// degraded results are never written to the cache.
  std::vector<Error> failures;
  /// True when the run stopped early on a shutdown request: incomplete
  /// result slots hold default values, the checkpoint (if enabled) holds
  /// every completed task, and nothing was cached.
  bool interrupted = false;

  bool degraded() const { return !failures.empty(); }
};

/// Runs (or replays from cache) the whole evaluation. `progress`, when
/// given, receives one line per phase. `obs`, when given, receives one span
/// per phase (suite.detect / suite.map / suite.evaluate) plus everything the
/// underlying Pipeline publishes. A cache hit replays the stored tasks
/// through the same three spans without simulating anything.
SuiteResult run_suite(const SuiteConfig& config,
                      std::ostream* progress = nullptr,
                      obs::ObsContext* obs = nullptr);

// ---------------------------------------------------------------------------
// Phase-churn differential (DESIGN.md Sec. 17).
//
// A seeded adversarial phase flip: the workload runs a pairwise sharing
// pattern whose partner shift follows `shifts` (one barrier-terminated
// iteration per entry, long stretches expressed by repetition — e.g.
// {0,0,0,0, 1,1, 0,0,0,0} is a long shift-0 phase, a brief shift-1 burst,
// and a shift-0 tail). The burst baits an online mapper into migrating to a
// placement the tail then punishes. The scenario runs the same workload
// under three OnlineMapper arms so tests and benches can compare how each
// one weathers the bait.

struct ChurnScenarioConfig {
  MachineConfig machine{};  // Harpertown defaults
  int num_threads = 8;
  /// Pair-shift schedule; entry i runs one barrier-terminated iteration of
  /// the pairs pattern under that shift.
  std::vector<int> shifts = {0, 0, 0, 0, 1, 1, 0, 0, 0, 0};
  std::uint64_t shared_accesses = 4096;
  std::uint64_t private_accesses = 512;
  /// Base OnlineMapper config shared by all three arms (each arm then
  /// overrides remap_every_barriers / rollback as its identity demands).
  /// Defaults are tuned to the scenario's short traces: dense sampling and
  /// a low matrix floor (the runs are a dozen barriers, not millions of
  /// misses), a 2-barrier decision cadence, and phase detection made
  /// near-insensitive so the brief bait burst is judged by the canary's
  /// realized-cost measurement rather than declared a new phase (the
  /// phase-epoch path has its own tests).
  OnlineMapperConfig online = [] {
    OnlineMapperConfig c;
    c.remap_every_barriers = 2;
    c.min_matrix_total = 1;
    c.detector.sample_threshold = 1;
    c.phase.drift_threshold = 0.05;
    c.phase.miss_rate_delta = 100.0;
    return c;
  }();
  std::uint64_t seed = 3;
  /// Start placement for every arm; empty = identity.
  Mapping initial;
};

/// One arm's outcome: the dynamic run plus the communication cost of its
/// final placement under the ground-truth matrix of the *tail* phase (the
/// pattern the application ends — and would continue — in).
struct ChurnArmResult {
  Pipeline::DynamicRunResult run;
  double final_cost = 0.0;
};

struct ChurnScenarioResult {
  ChurnArmResult never_remap;   ///< remapping disabled (static placement)
  ChurnArmResult no_rollback;   ///< remaps, but canary verdicts are ignored
  ChurnArmResult canary;        ///< full self-correcting configuration
};

/// Ground truth for the pairs pattern under `shift`: unit weight between
/// each partner pair (the matrix the detector would converge to).
CommMatrix pair_truth_matrix(int num_threads, int shift);

/// Runs the three-arm differential described above.
ChurnScenarioResult run_churn_scenario(const ChurnScenarioConfig& config);

/// Cache plumbing (exposed for tests).
std::string suite_cache_key(const SuiteConfig& config);
/// Result-affecting fingerprint of a config (the cache key's hash): two
/// configs share it iff they would produce identical results, so it is what
/// a checkpoint's envelope carries and validates against on resume and on
/// a cache hit. The crash-safety knobs (checkpoint_dir / resume) are
/// deliberately excluded.
std::uint64_t suite_config_hash(const SuiteConfig& config);

}  // namespace tlbmap
