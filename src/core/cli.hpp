// Command-line front end for the library, factored as a parse/run pair so
// the argument handling is unit-testable. The binary lives in
// examples/tlbmap_cli.cpp.
//
// Commands:
//   detect   --app SP [--mechanism sm|hm|oracle] [--threads N] [--numa]
//   map      --app SP [--mechanism ...]           print detected mapping
//   evaluate --app SP --mapping 0,1,2,...         run under a placement
//   dynamic  --app SP [--reps ...]                online detect + migrate
//   suite    [--apps BT,SP,...] [--reps N]        figure-6 style table
//   record   --app SP --out DIR                   capture a trace
//   replay   --in DIR [--mapping ...]             run a captured trace
//   serve    [--tenants N] [--corrupt-tenant K]   mapping-service daemon
// Common: --size-scale X --iter-scale X --seed N --threads N --numa
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dynamic.hpp"
#include "core/fault.hpp"
#include "mapping/mapping.hpp"

namespace tlbmap {

struct CliOptions {
  std::string command;
  std::string app = "SP";
  std::string mechanism = "sm";
  int threads = 8;
  double size_scale = 1.0;
  double iter_scale = 1.0;
  int reps = 4;
  std::uint64_t seed = 1;
  bool numa = false;
  // Topology overrides (0 = keep the selected preset's value). Together
  // with --mesh-cols these describe manycore machines well past the
  // paper's 2x4 Harpertown — e.g. --sockets 32 --cores-per-socket 8
  // --cores-per-l2 1 --mesh-cols 8 is a 256-core mesh machine.
  int sockets = 0;           ///< --sockets
  int cores_per_socket = 0;  ///< --cores-per-socket
  int cores_per_l2 = 0;      ///< --cores-per-l2
  /// --mesh-cols: socket-mesh columns (0 = fully connected sockets).
  int mesh_cols = 0;
  /// --mapping-strategy: auto | edmonds | multisection.
  std::string mapping_strategy = "auto";
  /// Seeded fault-injection plan assembled from the --fault-* flags
  /// (DESIGN.md Sec. 11). Default-disabled: without any --fault-* flag the
  /// pipeline is bit-identical to a faultless build.
  FaultPlan fault{};
  /// --watchdog-events: abort a run with a structured error after this many
  /// issued trace events (0 = off).
  std::uint64_t watchdog_events = 0;
  std::vector<std::string> apps;  ///< suite only; empty = all nine
  Mapping mapping;                ///< evaluate/replay; empty = detect+map
  std::string dir;                ///< record --out / replay --in
  /// Online-mapper knobs (dynamic only; DESIGN.md Sec. 17), populated by
  /// --remap-every-barriers / --improvement-threshold / --migration-cooldown
  /// / --matrix-decay / --canary-barriers / --regression-threshold /
  /// --no-rollback. Embedding the config struct keeps the CLI defaults
  /// identical to the library defaults by construction; out-of-range values
  /// surface through OnlineMapperConfig::validate() as structured parse
  /// errors.
  OnlineMapperConfig online{};
  // Mapping-service daemon (serve only; DESIGN.md Sec. 16). Tenant streams
  // are synthetic NPB recordings; --corrupt-tenant injects deterministic
  // stream corruption into one of them, which must quarantine exactly that
  // session while every other tenant's outcome stays bit-identical.
  int tenants = 4;                ///< --tenants: synthetic tenant fleet size
  int corrupt_tenant = -1;        ///< --corrupt-tenant: index or -1 = none
  std::uint64_t serve_ticks = 0;  ///< --serve-ticks: tick cap (0 = drain)
  std::uint64_t chunk_bytes = 512;  ///< --chunk-bytes: feed fragment size
  int max_sessions = 64;          ///< --max-sessions: admission cap
  std::uint64_t queue_bytes = 64 * 1024;  ///< --queue-bytes: per session
  std::uint64_t session_budget_bytes = 8 * 1024 * 1024;  ///< --session-budget
  std::uint64_t total_budget_bytes = 64 * 1024 * 1024;   ///< --total-budget
  std::uint64_t deadline_events = 8192;   ///< --deadline-events: pump slice
  double drift_threshold = 0.90;  ///< --drift-threshold: re-match trigger
  int window_pages = 64;          ///< --window-pages: stream detector LRU
  std::uint64_t sweep_every = 4096;  ///< --sweep-every: stream sweep cadence
  std::string serve_out;          ///< --serve-out: JSON report path
  // Crash safety (suite and serve, DESIGN.md Sec. 12). With
  // --checkpoint-dir set, SIGINT/SIGTERM handlers are installed, progress
  // is checkpointed after every completed task (suite) or at tick
  // boundaries (serve), and an interrupted run exits with code 130;
  // --resume continues from the saved snapshot.
  std::string checkpoint_dir;  ///< empty = checkpointing off
  bool resume = false;
  // Observability (see src/obs/): "off" records nothing. Passing
  // --trace-out/--metrics-out/--manifest-out or a nonzero
  // --metrics-interval-events with the default level upgrades it to
  // "phases" so the artifacts are never silently empty.
  std::string obs_level = "off";  ///< off | phases | full
  std::string trace_out;          ///< Chrome-trace JSON path; empty = none
  std::string metrics_out;        ///< metrics JSONL path; empty = none
  /// --metrics-interval-events: simulated events between "interval"
  /// time-series samples (DESIGN.md Sec. 13); phase boundaries sample too.
  /// 0 (default) = series stream off.
  std::uint64_t metrics_interval_events = 0;
  /// --manifest-out: run-manifest JSON path (provenance + self-profile);
  /// empty = none. The suite writes it from run_suite, other commands from
  /// the generic epilogue.
  std::string manifest_out;
  bool help = false;
  std::string error;  ///< non-empty means parsing failed; message inside

  bool ok() const { return error.empty(); }
};

/// Parses argv (argv[0] ignored). Never throws; failures land in `error`.
CliOptions parse_cli(int argc, const char* const* argv);

std::string cli_usage();

/// Executes a parsed command, printing results to stdout. Returns the
/// process exit code (0 success, 2 usage error, 1 runtime failure, 130
/// when a checkpointed suite was interrupted by SIGINT/SIGTERM).
int run_cli(const CliOptions& options);

}  // namespace tlbmap
