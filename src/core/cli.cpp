#include "core/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/experiment.hpp"
#include "obs/selfprof.hpp"
#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/shutdown.hpp"
#include "npb/workload.hpp"
#include "obs/obs.hpp"
#include "sim/trace_file.hpp"

namespace tlbmap {

namespace {

constexpr CliCommand kCommands[] = {
    {"detect", "print the detected communication matrix for one app"},
    {"map", "detect, then print the derived thread->core mapping"},
    {"evaluate", "run one app under a given or detected mapping"},
    {"dynamic", "run with online detection and barrier migration"},
    {"suite",
     "run the full evaluation table across apps; a finished suite is "
     "cached as a completed checkpoint under $TLBMAP_CACHE_DIR (default "
     "<tmp>/tlbmap_cache) and a rerun replays it (TLBMAP_NO_CACHE=1 "
     "recomputes)"},
    {"record", "capture an app's trace to a directory"},
    {"replay", "run a captured trace"},
    {"serve", "host the mapping service for N synthetic tenants"},
};

/// Bit of the named command in CliOption::commands; an unknown name fails
/// to compile.
constexpr std::uint32_t command_bit(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCommands); ++i) {
    if (kCommands[i].name == name) return 1u << i;
  }
  throw std::invalid_argument("unknown command");
}

constexpr std::uint32_t kAll = (1u << std::size(kCommands)) - 1;
constexpr std::uint32_t kDynamic = command_bit("dynamic");
constexpr std::uint32_t kServe = command_bit("serve");
constexpr std::uint32_t kSuiteAndServe = command_bit("suite") | kServe;
/// Recording runs no simulated machine, so fault and watchdog options would
/// be silently ignored there; they are rejected instead.
constexpr std::uint32_t kSimulating = kAll & ~command_bit("record");

// Help groups, in usage order; the table lists each group's options
// contiguously.
constexpr std::string_view kGeneral = "options";
constexpr std::string_view kOnline =
    "online mapper (dynamic only; DESIGN.md Sec. 17)";
constexpr std::string_view kService =
    "mapping service (serve only; DESIGN.md Sec. 16)";
constexpr std::string_view kCrash = "crash safety (suite and serve)";
constexpr std::string_view kFault =
    "fault injection (all rates in [0,1]; defaults 0 = disabled, in which\n"
    "case results are bit-identical to a faultless build)";
constexpr std::string_view kObs = "observability";

// Short type names keep most setters on one line.
using S = std::string;
using U64 = std::uint64_t;

constexpr CliOption kOptions[] = {
    {"--help", "", kAll, kGeneral, "print this help",
     +[](CliOptions& o) { o.help = true; }},
    {"--app", "NAME", kAll, kGeneral,
     "one of BT CG EP FT IS LU MG SP UA (default SP)",
     +[](CliOptions& o, S v) { o.app = std::move(v); }},
    {"--mechanism", "M", kAll, kGeneral, "sm | hm | oracle (default sm)",
     +[](CliOptions& o, S v) { o.mechanism = std::move(v); }},
    {"--threads", "N", kAll, kGeneral, "thread count (default 8)",
     +[](CliOptions& o, int v) { o.threads = v; }},
    {"--size-scale", "X", kAll, kGeneral,
     "workload array scaling (default 1.0)",
     +[](CliOptions& o, double v) { o.size_scale = v; }},
    {"--iter-scale", "X", kAll, kGeneral,
     "workload iteration scaling (default 1.0)",
     +[](CliOptions& o, double v) { o.iter_scale = v; }},
    {"--reps", "N", kAll, kGeneral,
     "repetitions for evaluate/suite (default 4)",
     +[](CliOptions& o, int v) { o.reps = v; }},
    {"--seed", "N", kAll, kGeneral, "base RNG seed (default 1)",
     +[](CliOptions& o, U64 v) { o.seed = v; }},
    {"--numa", "", kAll, kGeneral, "use the NUMA machine model",
     +[](CliOptions& o) { o.numa = true; }},
    {"--sockets", "N", kAll, kGeneral, "override the machine's socket count",
     +[](CliOptions& o, int v) { o.sockets = v; }},
    {"--cores-per-socket", "N", kAll, kGeneral, "override cores per socket",
     +[](CliOptions& o, int v) { o.cores_per_socket = v; }},
    {"--cores-per-l2", "N", kAll, kGeneral, "override cores sharing one L2",
     +[](CliOptions& o, int v) { o.cores_per_l2 = v; }},
    {"--mesh-cols", "N", kAll, kGeneral,
     "arrange the sockets as an N-column 2D mesh (cross-socket cost grows "
     "with Manhattan hops; default 0 = fully connected)",
     +[](CliOptions& o, int v) { o.mesh_cols = v; }},
    {"--mapping-strategy", "S", kAll, kGeneral,
     "auto | edmonds | multisection (default auto: Edmonds below 128 threads, "
     "multisection at manycore scale)",
     +[](CliOptions& o, S v) { o.mapping_strategy = std::move(v); }},
    {"--apps", "A,B,...", kAll, kGeneral, "suite: restrict the application set",
     +[](CliOptions& o, std::vector<S> v) { o.apps = std::move(v); }},
    {"--mapping", "0,1,...", kAll, kGeneral,
     "evaluate/replay: explicit thread->core list",
     +[](CliOptions& o, Mapping v) { o.mapping = std::move(v); }},
    {"--out", "DIR", kAll, kGeneral, "record/replay trace directory",
     +[](CliOptions& o, S v) { o.dir = std::move(v); }, "--in"},

    {"--remap-every-barriers", "N", kDynamic, kOnline,
     "consider remapping every N barriers (default 4; 0 = never remap)",
     +[](CliOptions& o, int v) { o.online.remap_every_barriers = v; }},
    {"--improvement-threshold", "X", kDynamic, kOnline,
     "migrate only when the candidate placement is at least this fraction "
     "cheaper (default 0.15)",
     +[](CliOptions& o, double v) { o.online.improvement_threshold = v; }},
    {"--migration-cooldown", "N", kDynamic, kOnline,
     "remap decisions to sit out after a migration (default 1; 0 = the "
     "historical always-eligible behaviour)",
     +[](CliOptions& o, int v) { o.online.migration_cooldown = v; }},
    {"--matrix-decay", "X", kDynamic, kOnline,
     "matrix ageing factor per remap decision, in (0, 1] (default 0.5)",
     +[](CliOptions& o, double v) { o.online.decay = v; }},
    {"--min-matrix-total", "N", kDynamic, kOnline,
     "sampled matrix mass required before a remap decision is trusted "
     "(default 32; lower it for sparse workloads like CHURN)",
     +[](CliOptions& o, U64 v) { o.online.min_matrix_total = v; }},
    {"--canary-barriers", "N", kDynamic, kOnline,
     "measure each migration's realized cost over N barriers before judging "
     "it (default 2; 0 = no canary windows, no rollback)",
     +[](CliOptions& o, int v) { o.online.canary_barriers = v; }},
    {"--regression-threshold", "X", kDynamic, kOnline,
     "roll back when the canary window's cycles per access exceed the phase "
     "baseline by more than this fraction (default 0.25)",
     +[](CliOptions& o, double v) { o.online.regression_threshold = v; }},
    {"--no-rollback", "", kDynamic, kOnline,
     "measure canary verdicts but never act on a regression (the commit-blind "
     "control arm)", +[](CliOptions& o) { o.online.rollback = false; }},

    {"--tenants", "N", kServe, kService,
     "synthetic tenant sessions (default 4)",
     +[](CliOptions& o, int v) { o.serve.tenants = v; }},
    {"--corrupt-tenant", "K", kServe, kService,
     "deterministically corrupt tenant K's thread-0 stream; exactly that "
     "session must quarantine while the others finish untouched",
     +[](CliOptions& o, int v) { o.serve.corrupt_tenant = v; }},
    {"--serve-ticks", "N", kServe, kService,
     "stop after N service ticks (0 = drain all)",
     +[](CliOptions& o, U64 v) { o.serve.max_ticks = v; }},
    {"--chunk-bytes", "N", kServe, kService,
     "ingest fragment size per thread per tick",
     +[](CliOptions& o, U64 v) { o.serve.chunk_bytes = v; }},
    {"--max-sessions", "N", kServe, kService, "admission cap on live sessions",
     +[](CliOptions& o, int v) { o.serve.service.max_sessions = v; }},
    {"--queue-bytes", "N", kServe, kService,
     "per-session ingest queue bound (backpressure)",
     +[](CliOptions& o, U64 v) { o.serve.service.session.queue_bytes = v; }},
    {"--session-budget", "N", kServe, kService,
     "per-session memory budget in bytes",
     +[](CliOptions& o, U64 v) { o.serve.service.session.budget_bytes = v; }},
    {"--total-budget", "N", kServe, kService,
     "fleet memory budget (reject-new first, then shed newest when tightened "
     "at runtime)",
     +[](CliOptions& o, U64 v) { o.serve.service.total_budget_bytes = v; }},
    {"--deadline-events", "N", kServe, kService,
     "per-session decode slice per tick",
     +[](CliOptions& o, U64 v) {
       o.serve.service.session.deadline_events = v;
     }},
    {"--drift-threshold", "X", kServe, kService,
     "cosine drift below which decisions re-match",
     +[](CliOptions& o, double v) {
       o.serve.service.cache.drift_threshold = v;
     }},
    {"--window-pages", "N", kServe, kService,
     "stream-detector LRU window per thread",
     +[](CliOptions& o, int v) { o.serve.service.detector.window_pages = v; }},
    {"--sweep-every", "N", kServe, kService,
     "stream-detector sweep cadence in events",
     +[](CliOptions& o, U64 v) { o.serve.service.detector.sweep_every = v; }},
    {"--serve-out", "FILE", kServe, kService,
     "structured JSON report (tenants, quarantine reasons, counters)",
     +[](CliOptions& o, S v) { o.serve.report_out = std::move(v); }},

    {"--checkpoint-dir", "DIR", kSuiteAndServe, kCrash,
     "checkpoint progress to DIR/suite.ckpt after every suite task, or to "
     "DIR/service.ckpt (serve), and handle SIGINT/SIGTERM cleanly (the run "
     "stops at a task/tick boundary and exits 130)",
     +[](CliOptions& o, S v) { o.checkpoint_dir = std::move(v); }},
    {"--resume", "", kSuiteAndServe, kCrash,
     "continue from the checkpoint; a missing or invalid checkpoint falls "
     "back to a fresh run", +[](CliOptions& o) { o.resume = true; }},

    {"--fault-seed", "N", kSimulating, kFault,
     "seed of the fault-injection streams",
     +[](CliOptions& o, U64 v) { o.fault.seed = v; }},
    {"--fault-drop-rate", "X", kSimulating, kFault,
     "drop a sampled SM TLB entry",
     +[](CliOptions& o, double v) { o.fault.drop_sample_rate = v; }},
    {"--fault-corrupt-rate", "X", kSimulating, kFault,
     "corrupt a sampled SM page before search",
     +[](CliOptions& o, double v) { o.fault.corrupt_sample_rate = v; }},
    {"--fault-detect-fail-rate", "X", kSimulating, kFault,
     "SM detection instruction fails (search charged, yields nothing)",
     +[](CliOptions& o, double v) { o.fault.detect_fail_rate = v; }},
    {"--fault-sweep-skip-rate", "X", kSimulating, kFault,
     "silently skip a due HM sweep",
     +[](CliOptions& o, double v) { o.fault.sweep_skip_rate = v; }},
    {"--fault-sweep-fail-rate", "X", kSimulating, kFault,
     "fail an HM sweep (retried with backoff)",
     +[](CliOptions& o, double v) { o.fault.sweep_fail_rate = v; }},
    {"--fault-sweep-delay", "N", kSimulating, kFault,
     "delay each HM sweep by uniform [0,N] cycles",
     +[](CliOptions& o, U64 v) { o.fault.sweep_delay_max = v; }},
    {"--fault-matrix-flip-rate", "X", kSimulating, kFault,
     "pairwise-swap comm-matrix cells when the matrix is consumed",
     +[](CliOptions& o, double v) { o.fault.matrix_flip_rate = v; }},
    {"--fault-matrix-zero-rate", "X", kSimulating, kFault,
     "zero comm-matrix cells when consumed",
     +[](CliOptions& o, double v) { o.fault.matrix_zero_rate = v; }},
    {"--watchdog-events", "N", kSimulating, kFault,
     "abort a run with a structured error after N trace events (0 = off)",
     +[](CliOptions& o, U64 v) { o.watchdog_events = v; }},

    {"--obs-level", "L", kAll, kObs,
     "off | phases | full (default off; implied phases when an output file is "
     "requested)", +[](CliOptions& o, S v) { o.obs_level = std::move(v); }},
    {"--trace-out", "FILE", kAll, kObs,
     "write a Chrome-trace JSON (open in Perfetto)",
     +[](CliOptions& o, S v) { o.trace_out = std::move(v); }},
    {"--metrics-out", "FILE", kAll, kObs, "write the metrics registry as JSONL",
     +[](CliOptions& o, S v) { o.metrics_out = std::move(v); }},
    {"--metrics-interval-events", "N", kAll, kObs,
     "sample every registered metric into a {\"type\":\"series\"} JSONL "
     "stream every N simulated events and at phase boundaries (0 = off; "
     "series lands in --metrics-out)",
     +[](CliOptions& o, U64 v) { o.metrics_interval_events = v; }},
    {"--manifest-out", "FILE", kAll, kObs,
     "write a run manifest: config/seed/git provenance, wall + CPU time, peak "
     "RSS, and per-phase flamegraph collapsed stacks",
     +[](CliOptions& o, S v) { o.manifest_out = std::move(v); }},
};

/// Reads one option value as T. Numbers are strict: the whole token must
/// be consumed, so garbage suffixes ("8x", "0.5junk") are usage errors
/// rather than silently truncated values. Lists are comma-separated; list
/// items that are empty are skipped, mapping elements are ints and the
/// mapping must be non-empty.
template <class T>
T parse_value(const S& text) {
  if constexpr (std::is_same_v<T, S>) {
    return text;
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::size_t used = 0;
    T value{};
    if constexpr (std::is_same_v<T, int>) value = std::stoi(text, &used);
    if constexpr (std::is_same_v<T, double>) value = std::stod(text, &used);
    if constexpr (std::is_same_v<T, U64>) {
      // stoull accepts "-1" by wrapping; reject any sign explicitly.
      if (text.empty() || text[0] == '-' || text[0] == '+') {
        throw std::invalid_argument(text);
      }
      value = std::stoull(text, &used);
    }
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } else {
    T items;
    std::stringstream in(text);
    for (S item; std::getline(in, item, ',');) {
      if constexpr (std::is_same_v<T, Mapping>) {
        items.push_back(parse_value<int>(item));
      } else if (!item.empty()) {
        items.push_back(item);
      }
    }
    if (std::is_same_v<T, Mapping> && items.empty()) {
      throw std::invalid_argument("empty mapping");
    }
    return items;
  }
}

void apply(void (*set)(CliOptions&), CliOptions& opt, const S&) {
  set(opt);
}

template <class T>
void apply(void (*set)(CliOptions&, T), CliOptions& opt, const S& value) {
  set(opt, parse_value<T>(value));
}

/// "--out DIR / --in DIR": the option as the usage text lists it.
S label(const CliOption& option) {
  const S value = option.value.empty() ? "" : " " + S(option.value);
  S text = S(option.name) + value;
  if (!option.alias.empty()) text += " / " + S(option.alias) + value;
  return text;
}

/// Appends "  LABEL  text", with `text` word-wrapped to 79 columns under a
/// hanging indent of `width` + 4.
void append_entry(S& out, std::string_view label, std::size_t width,
                  std::string_view text) {
  constexpr std::size_t kColumns = 79;
  const std::size_t indent = width + 4;
  S line = "  " + S(label);
  line.resize(indent, ' ');
  std::istringstream words{S(text)};
  for (S word; words >> word;) {
    if (line.size() > indent && line.size() + 1 + word.size() > kColumns) {
      out += line + '\n';
      line.assign(indent, ' ');
    }
    if (line.size() > indent) line += ' ';
    line += word;
  }
  out += line + '\n';
}

MachineConfig machine_for(const CliOptions& opt) {
  MachineConfig machine = opt.numa ? MachineConfig::numa_harpertown()
                                   : MachineConfig::harpertown();
  if (opt.sockets > 0) machine.num_sockets = opt.sockets;
  if (opt.cores_per_socket > 0) machine.cores_per_socket = opt.cores_per_socket;
  if (opt.cores_per_l2 > 0) machine.cores_per_l2 = opt.cores_per_l2;
  machine.socket_mesh_cols = opt.mesh_cols;
  machine.fault = opt.fault;
  machine.watchdog_max_events = opt.watchdog_events;
  // Surface inconsistent overrides (indivisible geometry, mesh shape) as a
  // structured CLI error instead of a deep throw from the Topology ctor.
  machine.validate();
  return machine;
}

WorkloadParams params_for(const CliOptions& opt) {
  WorkloadParams p;
  p.num_threads = opt.threads;
  p.size_scale = opt.size_scale;
  p.iter_scale = opt.iter_scale;
  return p;
}

/// The workloads a command simulates on the machine: --app, or the suite's
/// app list (the nine NPB kernels by default). record, replay and serve
/// simulate none (serve checks its fleet in ServeOptions::validate()).
std::vector<S> simulated_apps(const CliOptions& opt) {
  if (opt.command == "suite") {
    return opt.apps.empty() ? npb_workload_names() : opt.apps;
  }
  if (opt.command == "record" || opt.command == "replay" ||
      opt.command == "serve") {
    return {};
  }
  return {opt.app};
}

MappingConfig mapping_for(const CliOptions& opt) {
  MappingConfig mapping;
  mapping.strategy =
      parse_mapping_strategy(opt.mapping_strategy).value_or(
          MappingStrategy::kAuto);
  return mapping;
}

/// The serve run the command line describes: the serve flags plus the
/// machine (with its topology overrides), the mapping strategy, the common
/// --app/--threads/--seed/--*-scale values and the checkpoint path.
svc::ServeOptions serve_options_for(const CliOptions& opt) {
  svc::ServeOptions serve = opt.serve;
  serve.service.machine = machine_for(opt);
  serve.service.mapping = mapping_for(opt);
  serve.threads = opt.threads;
  serve.app = opt.app;
  serve.size_scale = opt.size_scale;
  serve.iter_scale = opt.iter_scale;
  serve.seed = opt.seed;
  if (!opt.checkpoint_dir.empty()) {
    serve.checkpoint_path = opt.checkpoint_dir + "/service.ckpt";
    serve.resume = opt.resume;
  }
  return serve;
}

}  // namespace

std::span<const CliCommand> cli_commands() { return kCommands; }

std::span<const CliOption> cli_options() { return kOptions; }

std::string cli_usage() {
  S out = "usage: tlbmap_cli COMMAND [options]\n\ncommands:\n";
  std::size_t width = 0;
  for (const CliCommand& c : kCommands) width = std::max(width, c.name.size());
  for (const CliCommand& c : kCommands) {
    append_entry(out, c.name, width, c.help);
  }
  width = 0;
  for (const CliOption& o : kOptions) width = std::max(width, label(o).size());
  std::string_view group;
  for (const CliOption& o : kOptions) {
    if (o.group != group) {
      group = o.group;
      out += "\n" + S(group) + ":\n";
    }
    append_entry(out, label(o), width, o.help);
  }
  return out;
}

CliOptions parse_cli(int argc, const char* const* argv) {
  CliOptions opt;
  if (argc < 2) {
    opt.error = "missing command";
    return opt;
  }
  opt.command = argv[1];
  if (opt.command == "--help" || opt.command == "help") {
    opt.help = true;
    return opt;
  }
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const CliCommand& c) { return c.name == opt.command; });
  if (command == std::end(kCommands)) {
    opt.error = "unknown command: " + opt.command;
    return opt;
  }
  const std::uint32_t bit = 1u << (command - std::begin(kCommands));

  for (int i = 2; i < argc && opt.ok(); ++i) {
    const S arg = argv[i];
    const auto option = std::find_if(
        std::begin(kOptions), std::end(kOptions), [&](const CliOption& o) {
          return arg == o.name || (!o.alias.empty() && arg == o.alias);
        });
    if (option == std::end(kOptions)) {
      opt.error = "unknown option: " + arg;
    } else if ((option->commands & bit) == 0) {
      opt.error = arg + " only applies to";
      const char* separator = " ";
      for (std::size_t c = 0; c < std::size(kCommands); ++c) {
        if (option->commands & (1u << c)) {
          opt.error += separator + S(kCommands[c].name);
          separator = ", ";
        }
      }
    } else if (option->kind() != CliOption::Kind::kFlag && i + 1 >= argc) {
      opt.error = "missing value for " + arg;
    } else {
      const S value =
          option->kind() == CliOption::Kind::kFlag ? "" : argv[++i];
      try {
        std::visit([&](auto set) { apply(set, opt, value); }, option->set);
      } catch (const std::exception&) {
        opt.error = "bad value for " + arg;
      }
    }
  }
  if (!opt.ok()) return opt;

  if (opt.mechanism != "sm" && opt.mechanism != "hm" &&
      opt.mechanism != "oracle") {
    opt.error = "unknown mechanism: " + opt.mechanism;
  }
  if (opt.threads < 1) opt.error = "threads must be positive";
  if (opt.reps < 1) opt.error = "reps must be positive";
  if (opt.sockets < 0 || opt.cores_per_socket < 0 || opt.cores_per_l2 < 0 ||
      opt.mesh_cols < 0) {
    opt.error = "topology overrides must be non-negative";
  }
  if (!parse_mapping_strategy(opt.mapping_strategy)) {
    opt.error = "unknown mapping strategy: " + opt.mapping_strategy;
  }
  if (!obs::parse_obs_level(opt.obs_level)) {
    opt.error = "unknown obs level: " + opt.obs_level;
  } else if (opt.obs_level == "off" &&
             (!opt.trace_out.empty() || !opt.metrics_out.empty() ||
              !opt.manifest_out.empty() || opt.metrics_interval_events > 0)) {
    opt.obs_level = "phases";
  }
  if ((opt.command == "record" || opt.command == "replay") &&
      opt.dir.empty()) {
    opt.error = opt.command + " needs --out/--in DIR";
  }
  if (opt.error.empty() && opt.checkpoint_dir.empty() && opt.resume) {
    opt.error = "--resume needs --checkpoint-dir";
  }
  if (opt.error.empty()) {
    // Range checks live in the library: the CLI reports each config's own
    // invalid_argument message, and the workload registry's for an unknown
    // app name, as a structured usage error. A workload with more threads
    // than the machine has cores (a multiprogram app runs apps x threads)
    // could never be placed.
    try {
      make_npb_workload(opt.app, WorkloadParams{});
      for (const S& app : opt.apps) make_npb_workload(app, WorkloadParams{});
      const std::vector<S> simulated = simulated_apps(opt);
      const int cores = simulated.empty() ? 0 : machine_for(opt).num_cores();
      for (const S& app : simulated) {
        const int threads =
            make_npb_workload(app, params_for(opt))->num_threads();
        if (threads > cores) {
          throw std::invalid_argument(
              app + " at --threads " + std::to_string(opt.threads) +
              " runs " + std::to_string(threads) + " threads, more than the " +
              std::to_string(cores) + "-core machine has");
        }
      }
      opt.online.validate();
      opt.fault.validate();
      if (opt.command == "serve") serve_options_for(opt).validate();
    } catch (const std::exception& e) {
      opt.error = e.what();
    }
  }
  return opt;
}

namespace {

Pipeline::Mechanism mechanism_for(const CliOptions& opt) {
  if (opt.mechanism == "hm") return Pipeline::Mechanism::kHardwareManaged;
  if (opt.mechanism == "oracle") return Pipeline::Mechanism::kOracle;
  return Pipeline::Mechanism::kSoftwareManaged;
}

Pipeline make_pipeline(const CliOptions& opt, obs::ObsContext* obs) {
  Pipeline pipe(machine_for(opt));
  const SuiteConfig defaults;  // trace-scaled detector knobs
  pipe.sm_config() = defaults.sm;
  pipe.hm_config() = defaults.hm;
  pipe.mapping_config() = mapping_for(opt);
  pipe.set_observability(obs);
  pipe.set_metrics_interval_events(opt.metrics_interval_events);
  return pipe;
}

DetectionResult detect_for(Pipeline& pipe, const CliOptions& opt) {
  const auto workload = make_npb_workload(opt.app, params_for(opt));
  return pipe.detect(*workload, mechanism_for(opt), opt.seed);
}

void print_stats_row(const char* label, const MachineStats& s) {
  std::printf("%-22s cycles %-12llu inv %-10llu snoop %-10llu l2miss %llu\n",
              label, static_cast<unsigned long long>(s.execution_cycles),
              static_cast<unsigned long long>(s.invalidations),
              static_cast<unsigned long long>(s.snoop_transactions),
              static_cast<unsigned long long>(s.l2_misses));
}

int cmd_detect(const CliOptions& opt, obs::ObsContext* obs) {
  Pipeline pipe = make_pipeline(opt, obs);
  const DetectionResult det = detect_for(pipe, opt);
  std::printf("%s on %s: %llu searches, TLB miss rate %s, overhead %s\n",
              det.mechanism.c_str(), opt.app.c_str(),
              static_cast<unsigned long long>(det.searches),
              fmt_percent(det.stats.tlb_miss_rate(), 3).c_str(),
              fmt_percent(det.stats.overhead_fraction(), 3).c_str());
  std::printf("%s", det.matrix.heatmap().c_str());
  return 0;
}

int cmd_map(const CliOptions& opt, obs::ObsContext* obs) {
  Pipeline pipe = make_pipeline(opt, obs);
  const DetectionResult det = detect_for(pipe, opt);
  const Mapping mapping = pipe.map(det.matrix);
  std::printf("%s\n", to_string(mapping).c_str());
  return 0;
}

int cmd_evaluate(const CliOptions& opt, obs::ObsContext* obs) {
  Pipeline pipe = make_pipeline(opt, obs);
  const auto workload = make_npb_workload(opt.app, params_for(opt));
  Mapping mapping = opt.mapping;
  if (mapping.empty()) {
    mapping = pipe.map(detect_for(pipe, opt).matrix);
    std::printf("detected mapping: %s\n", to_string(mapping).c_str());
  }
  MachineStats total;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const MachineStats s = pipe.evaluate(
        *workload, mapping, opt.seed + static_cast<std::uint64_t>(rep));
    std::ostringstream label;
    label << "rep " << rep;
    print_stats_row(label.str().c_str(), s);
    total += s;
  }
  std::printf("mean time: %s s\n",
              fmt_double(cycles_to_seconds(total.execution_cycles) /
                             static_cast<double>(opt.reps),
                         5)
                  .c_str());
  return 0;
}

int cmd_dynamic(const CliOptions& opt, obs::ObsContext* obs) {
  Pipeline pipe = make_pipeline(opt, obs);
  const auto workload = make_npb_workload(opt.app, params_for(opt));
  const Mapping start = random_mapping(
      workload->num_threads(), machine_for(opt).num_cores(), opt.seed + 99);
  const auto result = pipe.evaluate_dynamic(*workload, start, opt.online,
                                            opt.seed);
  print_stats_row("dynamic", result.stats);
  std::printf("migrations %d (decisions %d), final: %s\n", result.migrations,
              result.remap_decisions,
              to_string(result.final_mapping).c_str());
  std::printf(
      "rollbacks %d, canary commits %d, backoff skips %d, phase epochs %llu\n",
      result.rollbacks, result.canary_commits, result.backoff_skips,
      static_cast<unsigned long long>(result.phase_epochs));
  const MachineStats still = pipe.evaluate(*workload, start, opt.seed);
  print_stats_row("static start", still);
  return 0;
}

int cmd_suite(const CliOptions& opt, obs::ObsContext* obs) {
  SuiteConfig config;
  config.machine = machine_for(opt);
  config.workload = params_for(opt);
  config.mapping = mapping_for(opt);
  config.repetitions = opt.reps;
  config.base_seed = opt.seed;
  if (!opt.apps.empty()) config.apps = opt.apps;
  config.checkpoint_dir = opt.checkpoint_dir;
  config.resume = opt.resume;
  config.metrics_interval_events = opt.metrics_interval_events;
  config.manifest_out = opt.manifest_out;
  if (!opt.checkpoint_dir.empty()) {
    // Clean shutdown (DESIGN.md Sec. 12): the first SIGINT/SIGTERM sets the
    // cooperative flag — workers stop at the next task/event boundary and
    // the suite checkpoints what completed. A second signal kills the
    // process the default way.
    install_shutdown_handlers();
  }
  const SuiteResult result = run_suite(config, &std::cerr, obs);
  if (result.interrupted) {
    std::fprintf(stderr,
                 "suite interrupted; partial results not shown "
                 "(resume with --resume)\n");
    return 130;  // conventional 128 + SIGINT
  }
  if (result.degraded()) {
    // Failed tasks left zeroed result slots: any ratio over them would be
    // made up. run_suite already named each failure on stderr.
    std::fprintf(stderr,
                 "suite degraded: %zu task(s) failed; no ratios shown\n",
                 result.failures.size());
    return 1;
  }
  TextTable table({"app", "time SM/OS", "time HM/OS", "inv SM/OS",
                   "snoop SM/OS", "L2 SM/OS"});
  for (const AppExperiment& app : result.apps) {
    table.add_row({app.app,
                   fmt_double(app.normalized(app.sm_runs,
                                             Metric::kTimeSeconds)),
                   fmt_double(app.normalized(app.hm_runs,
                                             Metric::kTimeSeconds)),
                   fmt_double(app.normalized(app.sm_runs,
                                             Metric::kInvalidations)),
                   fmt_double(app.normalized(app.sm_runs, Metric::kSnoops)),
                   fmt_double(app.normalized(app.sm_runs,
                                             Metric::kL2Misses))});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

int cmd_record(const CliOptions& opt) {
  const auto workload = make_npb_workload(opt.app, params_for(opt));
  const auto buffers = record_workload(*workload, opt.seed);
  save_recording(buffers, opt.dir);
  std::size_t bytes = 0;
  std::uint64_t accesses = 0;
  for (const auto& b : buffers) bytes += b.size();
  for (ThreadId t = 0; t < workload->num_threads(); ++t) {
    accesses += workload->accesses_of(t);
  }
  std::printf("recorded %s: %llu accesses, %zu bytes (%.2f B/access) in %s\n",
              opt.app.c_str(), static_cast<unsigned long long>(accesses),
              bytes, static_cast<double>(bytes) / static_cast<double>(accesses),
              opt.dir.c_str());
  return 0;
}

int cmd_replay(const CliOptions& opt, obs::ObsContext* obs) {
  RecordedWorkload workload(load_recording(opt.dir));
  Pipeline pipe = make_pipeline(opt, obs);
  Mapping mapping = opt.mapping;
  if (mapping.empty()) mapping = identity_mapping(workload.num_threads());
  const MachineStats s = pipe.evaluate(workload, mapping, opt.seed);
  print_stats_row("replay", s);
  return 0;
}

int cmd_serve(const CliOptions& opt, obs::ObsContext* obs) {
  const svc::ServeOptions serve = serve_options_for(opt);
  if (!serve.checkpoint_path.empty()) {
    // Same clean-shutdown contract as the suite: the first SIGINT/SIGTERM
    // stops the loop at a tick boundary and the service checkpoints.
    install_shutdown_handlers();
  }
  const svc::ServeOutcome result = svc::run_serve(serve, &std::cerr, obs);
  if (!result.error.empty()) {
    std::printf("error: %s\n", result.error.c_str());
    return result.exit_code;
  }
  for (const svc::TenantOutcome& t : result.tenants) {
    std::printf("%-12s session %-4llu %-12s events %-10llu",
                t.tenant.c_str(), static_cast<unsigned long long>(t.session),
                svc::to_string(t.status),
                static_cast<unsigned long long>(t.events));
    if (t.has_decision) {
      std::printf(" epoch %llu%s mapping %s\n",
                  static_cast<unsigned long long>(t.epoch),
                  t.degraded ? " (degraded)" : "",
                  to_string(t.mapping).c_str());
    } else {
      std::printf(" (no decision)\n");
    }
  }
  std::printf("%llu ticks, %llu events, %zu quarantined/shed\n",
              static_cast<unsigned long long>(result.ticks),
              static_cast<unsigned long long>(result.events),
              result.quarantines.size());
  return result.exit_code;
}

}  // namespace

namespace {

/// Writes the requested trace/metrics artifacts and prints the phase
/// profile. Runs after the command even on failure: a partial trace is the
/// tool you debug the failure with. Both artifacts are rendered into
/// memory first — with the stream's badbit checked — and land on disk via
/// atomic_write_file, so a crash or full disk mid-export can never leave a
/// truncated JSON/JSONL file behind.
void finish_observability(const CliOptions& options, obs::ObsContext* obs,
                          const obs::SelfProfiler& profiler, int code) {
  if (obs == nullptr) return;
  auto export_artifact = [](const std::string& path, const char* what,
                            const std::function<void(std::ostream&)>& render)
      -> bool {
    std::ostringstream buffer;
    render(buffer);
    if (!buffer.good()) {
      std::fprintf(stderr, "[obs] %s export stream failed; %s not written\n",
                   what, path.c_str());
      return false;
    }
    const Expected<void> written = atomic_write_file(path, buffer.str());
    if (!written) {
      std::fprintf(stderr, "[obs] cannot write %s to %s: %s\n", what,
                   path.c_str(), written.error().to_string().c_str());
      return false;
    }
    return true;
  };
  if (!options.trace_out.empty()) {
    const bool ok = export_artifact(
        options.trace_out, "trace",
        [&](std::ostream& out) { obs->tracer.export_chrome_trace(out); });
    if (ok) {
      std::fprintf(stderr, "[obs] trace written to %s (%zu events",
                   options.trace_out.c_str(), obs->tracer.size());
      if (obs->tracer.dropped() > 0) {
        std::fprintf(stderr, ", %llu dropped",
                     static_cast<unsigned long long>(obs->tracer.dropped()));
      }
      std::fprintf(stderr, ")\n");
    }
  }
  if (!options.metrics_out.empty()) {
    const bool ok = export_artifact(
        options.metrics_out, "metrics",
        [&](std::ostream& out) { obs->metrics.export_jsonl(out); });
    if (ok) {
      std::fprintf(stderr, "[obs] metrics written to %s\n",
                   options.metrics_out.c_str());
    }
  }
  // Generic run manifest for every command but the suite, which writes a
  // richer one (config hash, per-task sim-cycle stacks) from run_suite.
  if (!options.manifest_out.empty() && options.command != "suite") {
    obs::RunManifest manifest;
    manifest.command = options.command;
    manifest.git_describe = obs::build_git_describe();
    manifest.created_utc = obs::utc_timestamp();
    manifest.seed = options.seed;
    manifest.wall_seconds = profiler.wall_seconds();
    manifest.usage = profiler.snapshot();
    manifest.degraded = code != 0;
    manifest.interrupted = code == 130;
    // Per-phase wall attribution: self time of each completed span name
    // (nested spans count toward the innermost span only, so the phase
    // totals sum to real wall time instead of double-counting parents).
    std::map<std::string, std::uint64_t> phase_us;
    for (const obs::SpanSelf& span : obs::span_self_times(obs->tracer)) {
      phase_us[span.name] += span.self_us;
    }
    manifest.phases.assign(phase_us.begin(), phase_us.end());
    manifest.collapsed_wall = obs::collapsed_stacks(obs->tracer);
    manifest.extra.emplace_back("app", options.app);
    manifest.extra.emplace_back("mechanism", options.mechanism);
    const bool ok = export_artifact(
        options.manifest_out, "manifest",
        [&](std::ostream& out) { out << manifest.to_json(); });
    if (ok) {
      std::fprintf(stderr, "[obs] manifest written to %s\n",
                   options.manifest_out.c_str());
    }
  }
  std::fprintf(stderr, "\n%s", phase_profile(obs->tracer).c_str());
}

}  // namespace

int run_cli(const CliOptions& options) {
  if (options.help) {
    std::printf("%s", cli_usage().c_str());
    return 0;
  }
  if (!options.ok()) {
    std::printf("error: %s\n\n%s", options.error.c_str(),
                cli_usage().c_str());
    return 2;
  }
  const obs::SelfProfiler profiler;
  obs::ObsContext ctx;
  ctx.level =
      obs::parse_obs_level(options.obs_level).value_or(obs::ObsLevel::kOff);
  obs::ObsContext* obs = ctx.level == obs::ObsLevel::kOff ? nullptr : &ctx;
  int code = 2;  // unreachable fallback: parse_cli validated the command
  try {
    if (options.command == "detect") code = cmd_detect(options, obs);
    else if (options.command == "map") code = cmd_map(options, obs);
    else if (options.command == "evaluate") code = cmd_evaluate(options, obs);
    else if (options.command == "dynamic") code = cmd_dynamic(options, obs);
    else if (options.command == "suite") code = cmd_suite(options, obs);
    else if (options.command == "record") code = cmd_record(options);
    else if (options.command == "replay") code = cmd_replay(options, obs);
    else if (options.command == "serve") code = cmd_serve(options, obs);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    code = 1;
  }
  finish_observability(options, obs, profiler, code);
  return code;
}

}  // namespace tlbmap
