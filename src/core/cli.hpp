// Command-line front end for the library, factored as a parse/run pair so
// the argument handling is unit-testable. The binary lives in
// examples/tlbmap_cli.cpp; `tlbmap_cli --help` lists every option.
//
// One static table, cli_options(), declares each option once: its name,
// the commands it applies to, its help group and text, and a setter whose
// signature is the option's value kind. parse_cli, the usage text, command
// gating and the unknown-option error are all loops over that table.
//
// Library configs are embedded, never copied: `online`
// (OnlineMapperConfig), `fault` (FaultPlan) and `serve` (svc::ServeOptions)
// carry the library's defaults by construction, options write straight
// into them, and parse_cli reports their own validate() messages as usage
// errors (exit code 2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/dynamic.hpp"
#include "core/fault.hpp"
#include "mapping/mapping.hpp"
#include "svc/serve.hpp"

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
  /// Online-mapper knobs (dynamic only; DESIGN.md Sec. 17).
  OnlineMapperConfig online{};
  /// Mapping-service daemon (serve only; DESIGN.md Sec. 16). The serve
  /// command adds the machine, the mapping strategy, the common
  /// --app/--threads/--seed/--*-scale values and the checkpoint path, and
  /// parse_cli validates the combined options.
  svc::ServeOptions serve{};
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

/// A command and its one-paragraph help.
struct CliCommand {
  std::string_view name;
  std::string_view help;
};

/// One command-line option: the one place its name, gating, help and
/// effect are declared.
struct CliOption {
  /// The setter's signature is the value kind (Kind, in the same order);
  /// parse_cli reads the value with the matching strict parser.
  using Setter = std::variant<void (*)(CliOptions&),  // flag: no value
                              void (*)(CliOptions&, int),
                              void (*)(CliOptions&, std::uint64_t),
                              void (*)(CliOptions&, double),
                              void (*)(CliOptions&, std::string),
                              void (*)(CliOptions&, std::vector<std::string>),
                              void (*)(CliOptions&, Mapping)>;
  enum class Kind { kFlag, kInt, kU64, kDouble, kString, kList, kMapping };

  std::string_view name;
  std::string_view value;  ///< value placeholder in the help; empty for flags
  /// Bit i set = applies to cli_commands()[i]; elsewhere a usage error.
  std::uint32_t commands;
  std::string_view group;  ///< help heading the option is listed under
  std::string_view help;
  Setter set;
  std::string_view alias = {};  ///< second spelling ("--in" for "--out")

  Kind kind() const { return static_cast<Kind>(set.index()); }
};

/// The command and option tables, in help order.
std::span<const CliCommand> cli_commands();
std::span<const CliOption> cli_options();

/// Parses argv (argv[0] ignored). Never throws; failures land in `error`.
CliOptions parse_cli(int argc, const char* const* argv);

std::string cli_usage();

/// Executes a parsed command, printing results to stdout. Returns the
/// process exit code (0 success, 2 usage error, 1 runtime failure, 130
/// when a checkpointed suite was interrupted by SIGINT/SIGTERM).
int run_cli(const CliOptions& options);

}  // namespace tlbmap
