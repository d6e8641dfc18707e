#include "core/cli.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>

#include "core/experiment.hpp"
#include "obs/selfprof.hpp"
#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/shutdown.hpp"
#include "npb/workload.hpp"
#include "obs/obs.hpp"
#include "sim/trace_file.hpp"
#include "svc/serve.hpp"

namespace tlbmap {

namespace {

Mapping parse_mapping(const std::string& text, std::string& error) {
  Mapping mapping;
  std::stringstream in(text);
  std::string cell;
  while (std::getline(in, cell, ',')) {
    try {
      std::size_t used = 0;
      const int core = std::stoi(cell, &used);
      if (used != cell.size()) throw std::invalid_argument(cell);
      mapping.push_back(core);
    } catch (const std::exception&) {
      error = "bad mapping element: '" + cell + "'";
      return {};
    }
  }
  if (mapping.empty()) error = "empty mapping";
  return mapping;
}

std::vector<std::string> parse_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

std::string cli_usage() {
  return
      "usage: tlbmap_cli COMMAND [options]\n"
      "\n"
      "commands:\n"
      "  detect    print the detected communication matrix for one app\n"
      "  map       detect, then print the derived thread->core mapping\n"
      "  evaluate  run one app under a given or detected mapping\n"
      "  dynamic   run with online detection and barrier migration\n"
      "  suite     run the full evaluation table across apps; a finished\n"
      "            suite is cached as a completed checkpoint under\n"
      "            $TLBMAP_CACHE_DIR (default <tmp>/tlbmap_cache) and a\n"
      "            rerun replays it (TLBMAP_NO_CACHE=1 recomputes)\n"
      "  record    capture an app's trace to a directory\n"
      "  replay    run a captured trace\n"
      "  serve     host the mapping service for N synthetic tenants\n"
      "\n"
      "options:\n"
      "  --app NAME           one of BT CG EP FT IS LU MG SP UA (default SP)\n"
      "  --mechanism M        sm | hm | oracle (default sm)\n"
      "  --threads N          thread count (default 8)\n"
      "  --size-scale X       workload array scaling (default 1.0)\n"
      "  --iter-scale X       workload iteration scaling (default 1.0)\n"
      "  --reps N             repetitions for evaluate/suite (default 4)\n"
      "  --seed N             base RNG seed (default 1)\n"
      "  --numa               use the NUMA machine model\n"
      "  --sockets N          override the machine's socket count\n"
      "  --cores-per-socket N override cores per socket\n"
      "  --cores-per-l2 N     override cores sharing one L2\n"
      "  --mesh-cols N        arrange the sockets as an N-column 2D mesh\n"
      "                       (cross-socket cost grows with Manhattan\n"
      "                       hops; default 0 = fully connected)\n"
      "  --mapping-strategy S auto | edmonds | multisection\n"
      "                       (default auto: Edmonds below 128 threads,\n"
      "                       multisection at manycore scale)\n"
      "  --apps A,B,...       suite: restrict the application set\n"
      "  --mapping 0,1,...    evaluate/replay: explicit thread->core list\n"
      "  --out DIR / --in DIR record/replay trace directory\n"
      "\n"
      "online mapper (dynamic only; DESIGN.md Sec. 17):\n"
      "  --remap-every-barriers N\n"
      "                       consider remapping every N barriers\n"
      "                       (default 4; 0 = never remap)\n"
      "  --improvement-threshold X\n"
      "                       migrate only when the candidate placement is\n"
      "                       at least this fraction cheaper (default 0.15)\n"
      "  --migration-cooldown N\n"
      "                       remap decisions to sit out after a migration\n"
      "                       (default 1; 0 = the historical\n"
      "                       always-eligible behaviour)\n"
      "  --matrix-decay X     matrix ageing factor per remap decision,\n"
      "                       in (0, 1] (default 0.5)\n"
      "  --min-matrix-total N sampled matrix mass required before a remap\n"
      "                       decision is trusted (default 32; lower it for\n"
      "                       sparse workloads like CHURN)\n"
      "  --canary-barriers N  measure each migration's realized cost over\n"
      "                       N barriers before judging it (default 2;\n"
      "                       0 = no canary windows, no rollback)\n"
      "  --regression-threshold X\n"
      "                       roll back when the canary window's cycles per\n"
      "                       access exceed the phase baseline by more than\n"
      "                       this fraction (default 0.25)\n"
      "  --no-rollback        measure canary verdicts but never act on a\n"
      "                       regression (the commit-blind control arm)\n"
      "\n"
      "mapping service (serve only; DESIGN.md Sec. 16):\n"
      "  --tenants N          synthetic tenant sessions (default 4)\n"
      "  --corrupt-tenant K   deterministically corrupt tenant K's thread-0\n"
      "                       stream; exactly that session must quarantine\n"
      "                       while the others finish untouched\n"
      "  --serve-ticks N      stop after N service ticks (0 = drain all)\n"
      "  --chunk-bytes N      ingest fragment size per thread per tick\n"
      "  --max-sessions N     admission cap on live sessions\n"
      "  --queue-bytes N      per-session ingest queue bound (backpressure)\n"
      "  --session-budget N   per-session memory budget in bytes\n"
      "  --total-budget N     fleet memory budget (reject-new first, then\n"
      "                       shed newest when tightened at runtime)\n"
      "  --deadline-events N  per-session decode slice per tick\n"
      "  --drift-threshold X  cosine drift below which decisions re-match\n"
      "  --window-pages N     stream-detector LRU window per thread\n"
      "  --sweep-every N      stream-detector sweep cadence in events\n"
      "  --serve-out FILE     structured JSON report (tenants, quarantine\n"
      "                       reasons, counters)\n"
      "\n"
      "crash safety (suite and serve):\n"
      "  --checkpoint-dir DIR checkpoint progress to DIR/suite.ckpt after\n"
      "                       every suite task, or to DIR/service.ckpt\n"
      "                       (serve), and handle SIGINT/SIGTERM cleanly\n"
      "                       (the run stops at a task/tick boundary and\n"
      "                       exits 130)\n"
      "  --resume             continue from the checkpoint; a missing or\n"
      "                       invalid checkpoint falls back to a fresh run\n"
      "\n"
      "fault injection (all rates in [0,1]; defaults 0 = disabled, in which\n"
      "case results are bit-identical to a faultless build):\n"
      "  --fault-seed N             seed of the fault-injection streams\n"
      "  --fault-drop-rate X        drop a sampled SM TLB entry\n"
      "  --fault-corrupt-rate X     corrupt a sampled SM page before search\n"
      "  --fault-detect-fail-rate X SM detection instruction fails (search\n"
      "                             charged, yields nothing)\n"
      "  --fault-sweep-skip-rate X  silently skip a due HM sweep\n"
      "  --fault-sweep-fail-rate X  fail an HM sweep (retried with backoff)\n"
      "  --fault-sweep-delay N      delay each HM sweep by uniform [0,N]\n"
      "                             cycles\n"
      "  --fault-matrix-flip-rate X pairwise-swap comm-matrix cells when the\n"
      "                             matrix is consumed\n"
      "  --fault-matrix-zero-rate X zero comm-matrix cells when consumed\n"
      "  --watchdog-events N        abort a run with a structured error\n"
      "                             after N trace events (0 = off)\n"
      "\n"
      "observability:\n"
      "  --obs-level L        off | phases | full (default off; implied\n"
      "                       phases when an output file is requested)\n"
      "  --trace-out FILE     write a Chrome-trace JSON (open in Perfetto)\n"
      "  --metrics-out FILE   write the metrics registry as JSONL\n"
      "  --metrics-interval-events N\n"
      "                       sample every registered metric into a\n"
      "                       {\"type\":\"series\"} JSONL stream every N\n"
      "                       simulated events and at phase boundaries\n"
      "                       (0 = off; series lands in --metrics-out)\n"
      "  --manifest-out FILE  write a run manifest: config/seed/git\n"
      "                       provenance, wall + CPU time, peak RSS, and\n"
      "                       per-phase flamegraph collapsed stacks\n";
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
  static const std::vector<std::string> kCommands = {
      "detect", "map",    "evaluate", "dynamic",
      "suite",  "record", "replay",   "serve"};
  if (std::find(kCommands.begin(), kCommands.end(), opt.command) ==
      kCommands.end()) {
    opt.error = "unknown command: " + opt.command;
    return opt;
  }

  bool serve_flag_used = false;
  bool dynamic_flag_used = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        opt.error = "missing value for " + arg;
        return nullptr;
      }
      return argv[++i];
    };
    // Strict numeric parsing: the whole token must be consumed, so garbage
    // suffixes ("8x", "0.5junk") are structured usage errors rather than
    // silently truncated values.
    auto to_int = [](const std::string& v) {
      std::size_t used = 0;
      const int value = std::stoi(v, &used);
      if (used != v.size()) throw std::invalid_argument(v);
      return value;
    };
    auto to_double = [](const std::string& v) {
      std::size_t used = 0;
      const double value = std::stod(v, &used);
      if (used != v.size()) throw std::invalid_argument(v);
      return value;
    };
    auto to_u64 = [](const std::string& v) {
      // stoull accepts "-1" by wrapping; reject any sign explicitly.
      if (v.empty() || v[0] == '-' || v[0] == '+') {
        throw std::invalid_argument(v);
      }
      std::size_t used = 0;
      const std::uint64_t value = std::stoull(v, &used);
      if (used != v.size()) throw std::invalid_argument(v);
      return value;
    };
    try {
      if (arg == "--help") {
        opt.help = true;
      } else if (arg == "--numa") {
        opt.numa = true;
      } else if (arg == "--app") {
        if (const char* v = next_value()) opt.app = v;
      } else if (arg == "--mechanism") {
        if (const char* v = next_value()) opt.mechanism = v;
      } else if (arg == "--threads") {
        if (const char* v = next_value()) opt.threads = to_int(v);
      } else if (arg == "--size-scale") {
        if (const char* v = next_value()) opt.size_scale = to_double(v);
      } else if (arg == "--iter-scale") {
        if (const char* v = next_value()) opt.iter_scale = to_double(v);
      } else if (arg == "--reps") {
        if (const char* v = next_value()) opt.reps = to_int(v);
      } else if (arg == "--seed") {
        if (const char* v = next_value()) opt.seed = to_u64(v);
      } else if (arg == "--sockets") {
        if (const char* v = next_value()) opt.sockets = to_int(v);
      } else if (arg == "--cores-per-socket") {
        if (const char* v = next_value()) opt.cores_per_socket = to_int(v);
      } else if (arg == "--cores-per-l2") {
        if (const char* v = next_value()) opt.cores_per_l2 = to_int(v);
      } else if (arg == "--mesh-cols") {
        if (const char* v = next_value()) opt.mesh_cols = to_int(v);
      } else if (arg == "--mapping-strategy") {
        if (const char* v = next_value()) opt.mapping_strategy = v;
      } else if (arg == "--fault-seed") {
        if (const char* v = next_value()) opt.fault.seed = to_u64(v);
      } else if (arg == "--fault-drop-rate") {
        if (const char* v = next_value()) opt.fault.drop_sample_rate = to_double(v);
      } else if (arg == "--fault-corrupt-rate") {
        if (const char* v = next_value()) opt.fault.corrupt_sample_rate = to_double(v);
      } else if (arg == "--fault-detect-fail-rate") {
        if (const char* v = next_value()) opt.fault.detect_fail_rate = to_double(v);
      } else if (arg == "--fault-sweep-skip-rate") {
        if (const char* v = next_value()) opt.fault.sweep_skip_rate = to_double(v);
      } else if (arg == "--fault-sweep-fail-rate") {
        if (const char* v = next_value()) opt.fault.sweep_fail_rate = to_double(v);
      } else if (arg == "--fault-sweep-delay") {
        if (const char* v = next_value()) opt.fault.sweep_delay_max = to_u64(v);
      } else if (arg == "--fault-matrix-flip-rate") {
        if (const char* v = next_value()) opt.fault.matrix_flip_rate = to_double(v);
      } else if (arg == "--fault-matrix-zero-rate") {
        if (const char* v = next_value()) opt.fault.matrix_zero_rate = to_double(v);
      } else if (arg == "--watchdog-events") {
        if (const char* v = next_value()) opt.watchdog_events = to_u64(v);
      } else if (arg == "--checkpoint-dir") {
        if (const char* v = next_value()) opt.checkpoint_dir = v;
      } else if (arg == "--resume") {
        opt.resume = true;
      } else if (arg == "--apps") {
        if (const char* v = next_value()) opt.apps = parse_list(v);
      } else if (arg == "--mapping") {
        if (const char* v = next_value()) {
          opt.mapping = parse_mapping(v, opt.error);
        }
      } else if (arg == "--out" || arg == "--in") {
        if (const char* v = next_value()) opt.dir = v;
      } else if (arg == "--remap-every-barriers") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.remap_every_barriers = to_int(v);
        }
      } else if (arg == "--improvement-threshold") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.improvement_threshold = to_double(v);
        }
      } else if (arg == "--migration-cooldown") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.migration_cooldown = to_int(v);
        }
      } else if (arg == "--matrix-decay") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) opt.online.decay = to_double(v);
      } else if (arg == "--min-matrix-total") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.min_matrix_total = to_u64(v);
        }
      } else if (arg == "--canary-barriers") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.canary_barriers = to_int(v);
        }
      } else if (arg == "--regression-threshold") {
        dynamic_flag_used = true;
        if (const char* v = next_value()) {
          opt.online.regression_threshold = to_double(v);
        }
      } else if (arg == "--no-rollback") {
        dynamic_flag_used = true;
        opt.online.rollback = false;
      } else if (arg == "--tenants") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.tenants = to_int(v);
      } else if (arg == "--corrupt-tenant") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.corrupt_tenant = to_int(v);
      } else if (arg == "--serve-ticks") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.serve_ticks = to_u64(v);
      } else if (arg == "--chunk-bytes") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.chunk_bytes = to_u64(v);
      } else if (arg == "--max-sessions") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.max_sessions = to_int(v);
      } else if (arg == "--queue-bytes") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.queue_bytes = to_u64(v);
      } else if (arg == "--session-budget") {
        serve_flag_used = true;
        if (const char* v = next_value()) {
          opt.session_budget_bytes = to_u64(v);
        }
      } else if (arg == "--total-budget") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.total_budget_bytes = to_u64(v);
      } else if (arg == "--deadline-events") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.deadline_events = to_u64(v);
      } else if (arg == "--drift-threshold") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.drift_threshold = to_double(v);
      } else if (arg == "--window-pages") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.window_pages = to_int(v);
      } else if (arg == "--sweep-every") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.sweep_every = to_u64(v);
      } else if (arg == "--serve-out") {
        serve_flag_used = true;
        if (const char* v = next_value()) opt.serve_out = v;
      } else if (arg == "--obs-level") {
        if (const char* v = next_value()) opt.obs_level = v;
      } else if (arg == "--trace-out") {
        if (const char* v = next_value()) opt.trace_out = v;
      } else if (arg == "--metrics-out") {
        if (const char* v = next_value()) opt.metrics_out = v;
      } else if (arg == "--metrics-interval-events") {
        if (const char* v = next_value()) {
          opt.metrics_interval_events = to_u64(v);
        }
      } else if (arg == "--manifest-out") {
        if (const char* v = next_value()) opt.manifest_out = v;
      } else {
        opt.error = "unknown option: " + arg;
      }
    } catch (const std::exception&) {
      opt.error = "bad value for " + arg;
    }
    if (!opt.error.empty()) return opt;
  }

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
  if (opt.error.empty() && opt.command != "suite" &&
      opt.command != "serve" &&
      (!opt.checkpoint_dir.empty() || opt.resume)) {
    opt.error = "checkpoint/resume flags only apply to suite and serve";
  }
  if (opt.error.empty() && serve_flag_used && opt.command != "serve") {
    opt.error = "mapping-service flags only apply to serve";
  }
  if (opt.error.empty() && dynamic_flag_used && opt.command != "dynamic") {
    opt.error = "online-mapper flags only apply to dynamic";
  }
  if (opt.error.empty() && dynamic_flag_used) {
    // Range checks live in the library config: the CLI reports the struct's
    // own invalid_argument message as a structured usage error.
    try {
      opt.online.validate();
    } catch (const std::exception& e) {
      opt.error = e.what();
    }
  }
  if (opt.error.empty() && opt.command == "serve") {
    if (opt.tenants < 1) opt.error = "tenants must be positive";
    if (opt.chunk_bytes == 0) opt.error = "chunk-bytes must be positive";
    if (opt.max_sessions < 1) opt.error = "max-sessions must be positive";
    if (opt.corrupt_tenant >= opt.tenants) {
      opt.error = "corrupt-tenant index past the tenant fleet";
    }
    if (opt.drift_threshold < 0.0 || opt.drift_threshold > 1.0) {
      opt.error = "drift-threshold must be in [0, 1]";
    }
  }
  if (opt.error.empty() && opt.checkpoint_dir.empty() && opt.resume) {
    opt.error = "--resume needs --checkpoint-dir";
  }
  if (opt.error.empty()) {
    // Out-of-range fault rates are usage errors, reported through the same
    // structured channel as every other parse failure.
    try {
      opt.fault.validate();
    } catch (const std::exception& e) {
      opt.error = e.what();
    }
  }
  if (opt.error.empty() && opt.command == "record" &&
      (opt.fault.enabled() || opt.watchdog_events > 0)) {
    // Recording runs no simulated machine; silently ignoring the flags
    // would mislead more than rejecting them.
    opt.error = "fault/watchdog flags conflict with the record command";
  }
  return opt;
}

namespace {

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

MappingConfig mapping_for(const CliOptions& opt) {
  MappingConfig mapping;
  mapping.strategy =
      parse_mapping_strategy(opt.mapping_strategy).value_or(
          MappingStrategy::kAuto);
  return mapping;
}

WorkloadParams params_for(const CliOptions& opt) {
  WorkloadParams p;
  p.num_threads = opt.threads;
  p.size_scale = opt.size_scale;
  p.iter_scale = opt.iter_scale;
  return p;
}

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
      opt.threads, machine_for(opt).num_cores(), opt.seed + 99);
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
  svc::ServeOptions serve;
  serve.service.machine = machine_for(opt);
  serve.service.mapping = mapping_for(opt);
  serve.service.max_sessions = opt.max_sessions;
  serve.service.session.queue_bytes = opt.queue_bytes;
  serve.service.session.budget_bytes = opt.session_budget_bytes;
  serve.service.session.deadline_events = opt.deadline_events;
  serve.service.total_budget_bytes = opt.total_budget_bytes;
  serve.service.cache.drift_threshold = opt.drift_threshold;
  serve.service.detector.window_pages = opt.window_pages;
  serve.service.detector.sweep_every = opt.sweep_every;
  serve.tenants = opt.tenants;
  serve.threads = opt.threads;
  serve.app = opt.app;
  serve.size_scale = opt.size_scale;
  serve.iter_scale = opt.iter_scale;
  serve.seed = opt.seed;
  serve.chunk_bytes = opt.chunk_bytes;
  serve.max_ticks = opt.serve_ticks;
  serve.corrupt_tenant = opt.corrupt_tenant;
  serve.report_out = opt.serve_out;
  if (!opt.checkpoint_dir.empty()) {
    serve.checkpoint_path = opt.checkpoint_dir + "/service.ckpt";
    serve.resume = opt.resume;
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
