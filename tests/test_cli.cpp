// Tests for the CLI argument parser and a smoke pass over the commands.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "core/cli.hpp"

namespace tlbmap {
namespace {

CliOptions parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tlbmap_cli"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

CliOptions parse(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"tlbmap_cli"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, MissingCommand) {
  const CliOptions opt = parse({});
  EXPECT_FALSE(opt.ok());
}

TEST(Cli, Help) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"help"}).help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, UnknownCommand) {
  const CliOptions opt = parse({"frobnicate"});
  EXPECT_FALSE(opt.ok());
  EXPECT_NE(opt.error.find("frobnicate"), std::string::npos);
}

TEST(Cli, DefaultsApplied) {
  const CliOptions opt = parse({"detect"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt.command, "detect");
  EXPECT_EQ(opt.app, "SP");
  EXPECT_EQ(opt.mechanism, "sm");
  EXPECT_EQ(opt.threads, 8);
  EXPECT_FALSE(opt.numa);
}

TEST(Cli, AllOptionsParsed) {
  const CliOptions opt =
      parse({"evaluate", "--app", "BT", "--mechanism", "hm", "--threads",
             "4", "--size-scale", "0.5", "--iter-scale", "2.0", "--reps",
             "7", "--seed", "42", "--numa", "--mapping", "3,2,1,0"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.app, "BT");
  EXPECT_EQ(opt.mechanism, "hm");
  EXPECT_EQ(opt.threads, 4);
  EXPECT_DOUBLE_EQ(opt.size_scale, 0.5);
  EXPECT_DOUBLE_EQ(opt.iter_scale, 2.0);
  EXPECT_EQ(opt.reps, 7);
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_TRUE(opt.numa);
  EXPECT_EQ(opt.mapping, (Mapping{3, 2, 1, 0}));
}

TEST(Cli, AppsList) {
  const CliOptions opt = parse({"suite", "--apps", "BT,SP,UA"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt.apps, (std::vector<std::string>{"BT", "SP", "UA"}));
}

TEST(Cli, BadMappingRejected) {
  EXPECT_FALSE(parse({"evaluate", "--mapping", "1,x,3"}).ok());
  EXPECT_FALSE(parse({"evaluate", "--mapping", ""}).ok());
}

TEST(Cli, BadMechanismRejected) {
  EXPECT_FALSE(parse({"detect", "--mechanism", "magic"}).ok());
}

TEST(Cli, MissingValueRejected) {
  EXPECT_FALSE(parse({"detect", "--app"}).ok());
  EXPECT_FALSE(parse({"detect", "--threads"}).ok());
}

TEST(Cli, NonNumericValueRejected) {
  EXPECT_FALSE(parse({"detect", "--threads", "many"}).ok());
  EXPECT_FALSE(parse({"detect", "--size-scale", "big"}).ok());
}

TEST(Cli, RecordNeedsDir) {
  EXPECT_FALSE(parse({"record", "--app", "EP"}).ok());
  EXPECT_TRUE(parse({"record", "--app", "EP", "--out", "/tmp/x"}).ok());
  EXPECT_FALSE(parse({"replay"}).ok());
}

TEST(Cli, UnknownOptionRejected) {
  EXPECT_FALSE(parse({"detect", "--frobnicate"}).ok());
}

TEST(Cli, ObsFlagsParsed) {
  const CliOptions opt = parse({"detect", "--obs-level", "full",
                                "--trace-out", "/tmp/t.json",
                                "--metrics-out", "/tmp/m.jsonl"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.obs_level, "full");
  EXPECT_EQ(opt.trace_out, "/tmp/t.json");
  EXPECT_EQ(opt.metrics_out, "/tmp/m.jsonl");
}

TEST(Cli, ObsLevelDefaultsOffAndValidates) {
  EXPECT_EQ(parse({"detect"}).obs_level, "off");
  EXPECT_FALSE(parse({"detect", "--obs-level", "loud"}).ok());
}

TEST(Cli, ObsOutputImpliesPhases) {
  EXPECT_EQ(parse({"detect", "--trace-out", "/tmp/t.json"}).obs_level,
            "phases");
  EXPECT_EQ(parse({"detect", "--metrics-out", "/tmp/m.jsonl"}).obs_level,
            "phases");
  // An explicit level is never downgraded.
  EXPECT_EQ(parse({"detect", "--obs-level", "full", "--trace-out",
                   "/tmp/t.json"})
                .obs_level,
            "full");
}

TEST(Cli, FaultFlagsParsed) {
  const CliOptions opt = parse(
      {"detect", "--fault-seed", "9", "--fault-drop-rate", "0.25",
       "--fault-corrupt-rate", "0.1", "--fault-detect-fail-rate", "0.05",
       "--fault-sweep-skip-rate", "0.2", "--fault-sweep-fail-rate", "0.3",
       "--fault-sweep-delay", "1000", "--fault-matrix-flip-rate", "0.15",
       "--fault-matrix-zero-rate", "0.05", "--watchdog-events", "500000"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.fault.seed, 9u);
  EXPECT_DOUBLE_EQ(opt.fault.drop_sample_rate, 0.25);
  EXPECT_DOUBLE_EQ(opt.fault.corrupt_sample_rate, 0.1);
  EXPECT_DOUBLE_EQ(opt.fault.detect_fail_rate, 0.05);
  EXPECT_DOUBLE_EQ(opt.fault.sweep_skip_rate, 0.2);
  EXPECT_DOUBLE_EQ(opt.fault.sweep_fail_rate, 0.3);
  EXPECT_EQ(opt.fault.sweep_delay_max, 1000u);
  EXPECT_DOUBLE_EQ(opt.fault.matrix_flip_rate, 0.15);
  EXPECT_DOUBLE_EQ(opt.fault.matrix_zero_rate, 0.05);
  EXPECT_EQ(opt.watchdog_events, 500000u);
  EXPECT_TRUE(opt.fault.enabled());
  EXPECT_FALSE(parse({"detect"}).fault.enabled());
}

TEST(Cli, FaultFlagsValidated) {
  // Out-of-range rates are structured usage errors, not aborts.
  EXPECT_FALSE(parse({"detect", "--fault-drop-rate", "1.5"}).ok());
  EXPECT_FALSE(parse({"detect", "--fault-matrix-zero-rate", "-0.1"}).ok());
  EXPECT_FALSE(parse({"detect", "--fault-drop-rate", "nan"}).ok());
  // record conflicts with fault/watchdog flags: a corrupted recording
  // poisons every later replay, so the combination is refused outright.
  EXPECT_FALSE(parse({"record", "--app", "EP", "--out", "/tmp/x",
                      "--fault-drop-rate", "0.1"})
                   .ok());
  EXPECT_FALSE(parse({"record", "--app", "EP", "--out", "/tmp/x",
                      "--watchdog-events", "10"})
                   .ok());
}

TEST(Cli, OnlineMapperFlagsParsed) {
  const CliOptions opt = parse(
      {"dynamic", "--remap-every-barriers", "2", "--improvement-threshold",
       "0.05", "--migration-cooldown", "0", "--matrix-decay", "0.75",
       "--min-matrix-total", "1", "--canary-barriers", "4",
       "--regression-threshold", "0.5", "--no-rollback"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.online.remap_every_barriers, 2);
  EXPECT_DOUBLE_EQ(opt.online.improvement_threshold, 0.05);
  EXPECT_EQ(opt.online.migration_cooldown, 0);
  EXPECT_DOUBLE_EQ(opt.online.decay, 0.75);
  EXPECT_EQ(opt.online.min_matrix_total, 1u);
  EXPECT_EQ(opt.online.canary_barriers, 4);
  EXPECT_DOUBLE_EQ(opt.online.regression_threshold, 0.5);
  EXPECT_FALSE(opt.online.rollback);
}

TEST(Cli, OnlineMapperDefaultsMatchTheLibrary) {
  // CliOptions embeds OnlineMapperConfig, so the CLI's defaults are the
  // library's by construction — including the measured non-zero cooldown.
  const CliOptions opt = parse({"dynamic"});
  ASSERT_TRUE(opt.ok());
  const OnlineMapperConfig lib;
  EXPECT_EQ(opt.online.remap_every_barriers, lib.remap_every_barriers);
  EXPECT_DOUBLE_EQ(opt.online.improvement_threshold,
                   lib.improvement_threshold);
  EXPECT_EQ(opt.online.migration_cooldown, lib.migration_cooldown);
  EXPECT_EQ(opt.online.migration_cooldown, 1);
  EXPECT_DOUBLE_EQ(opt.online.decay, lib.decay);
  EXPECT_EQ(opt.online.canary_barriers, lib.canary_barriers);
  EXPECT_TRUE(opt.online.rollback);
}

TEST(Cli, OnlineMapperFlagsValidated) {
  // Out-of-range knobs surface the library's own validation message as a
  // structured usage error.
  const CliOptions bad = parse({"dynamic", "--matrix-decay", "1.5"});
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("OnlineMapperConfig"), std::string::npos);
  EXPECT_FALSE(parse({"dynamic", "--matrix-decay", "0"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--improvement-threshold", "1.0"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--migration-cooldown", "-1"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--canary-barriers", "-2"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--regression-threshold", "-0.1"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--remap-every-barriers", "-4"}).ok());
  // Garbage values are caught by the strict numeric parser.
  EXPECT_FALSE(parse({"dynamic", "--canary-barriers", "two"}).ok());
}

TEST(Cli, OnlineMapperFlagsOnlyApplyToDynamic) {
  EXPECT_FALSE(parse({"evaluate", "--canary-barriers", "2"}).ok());
  EXPECT_FALSE(parse({"suite", "--remap-every-barriers", "2"}).ok());
  EXPECT_FALSE(parse({"detect", "--no-rollback"}).ok());
  const CliOptions wrong = parse({"serve", "--migration-cooldown", "0"});
  EXPECT_FALSE(wrong.ok());
  EXPECT_NE(wrong.error.find("dynamic"), std::string::npos);
}

TEST(Cli, CheckpointFlagsParsed) {
  const CliOptions opt =
      parse({"suite", "--checkpoint-dir", "/tmp/ckpt", "--resume"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.checkpoint_dir, "/tmp/ckpt");
  EXPECT_TRUE(opt.resume);

  const CliOptions defaults = parse({"suite"});
  ASSERT_TRUE(defaults.ok());
  EXPECT_TRUE(defaults.checkpoint_dir.empty());
  EXPECT_FALSE(defaults.resume);
}

TEST(Cli, CheckpointFlagsValidated) {
  // The crash-safety flags only make sense for the suite command...
  EXPECT_FALSE(parse({"detect", "--checkpoint-dir", "/tmp/ckpt"}).ok());
  EXPECT_FALSE(parse({"evaluate", "--resume"}).ok());
  // ...and resume without a checkpoint directory is a usage error.
  EXPECT_FALSE(parse({"suite", "--resume"}).ok());
  // The suite checkpoints after every task; there is no write-cadence flag.
  const CliOptions cadence = parse({"suite", "--checkpoint-dir", "/tmp/ckpt",
                                    "--checkpoint-every-events", "1000"});
  EXPECT_FALSE(cadence.ok());
  EXPECT_NE(cadence.error.find("unknown option"), std::string::npos);
  EXPECT_EQ(run_cli(cadence), 2);
}

TEST(Cli, ServeFlagsParsed) {
  const CliOptions opt = parse(
      {"serve", "--tenants", "6", "--corrupt-tenant", "2", "--serve-ticks",
       "200", "--chunk-bytes", "256", "--max-sessions", "12",
       "--queue-bytes", "32768", "--session-budget", "1048576",
       "--total-budget", "8388608", "--deadline-events", "1024",
       "--drift-threshold", "0.8", "--window-pages", "32", "--sweep-every",
       "512", "--serve-out", "/tmp/report.json"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.command, "serve");
  EXPECT_EQ(opt.serve.tenants, 6);
  EXPECT_EQ(opt.serve.corrupt_tenant, 2);
  EXPECT_EQ(opt.serve.max_ticks, 200u);
  EXPECT_EQ(opt.serve.chunk_bytes, 256u);
  EXPECT_EQ(opt.serve.service.max_sessions, 12);
  EXPECT_EQ(opt.serve.service.session.queue_bytes, 32768u);
  EXPECT_EQ(opt.serve.service.session.budget_bytes, 1048576u);
  EXPECT_EQ(opt.serve.service.total_budget_bytes, 8388608u);
  EXPECT_EQ(opt.serve.service.session.deadline_events, 1024u);
  EXPECT_DOUBLE_EQ(opt.serve.service.cache.drift_threshold, 0.8);
  EXPECT_EQ(opt.serve.service.detector.window_pages, 32);
  EXPECT_EQ(opt.serve.service.detector.sweep_every, 512u);
  EXPECT_EQ(opt.serve.report_out, "/tmp/report.json");

  const CliOptions defaults = parse({"serve"});
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_EQ(defaults.serve.tenants, 4);
  EXPECT_EQ(defaults.serve.corrupt_tenant, -1);  // -1 = no fault injection
  EXPECT_EQ(defaults.serve.max_ticks, 0u);       // 0 = run until drained
  EXPECT_TRUE(defaults.serve.report_out.empty());
}

TEST(Cli, ServeFlagsValidated) {
  EXPECT_FALSE(parse({"serve", "--tenants", "0"}).ok());
  EXPECT_FALSE(parse({"serve", "--chunk-bytes", "0"}).ok());
  EXPECT_FALSE(parse({"serve", "--max-sessions", "0"}).ok());
  EXPECT_FALSE(parse({"serve", "--drift-threshold", "1.5"}).ok());
  EXPECT_FALSE(parse({"serve", "--drift-threshold", "-0.1"}).ok());
  // The injected fault must name one of the tenants that exist.
  EXPECT_FALSE(
      parse({"serve", "--tenants", "3", "--corrupt-tenant", "3"}).ok());
  EXPECT_TRUE(
      parse({"serve", "--tenants", "3", "--corrupt-tenant", "2"}).ok());
  // The fleet's threads must fit the machine the topology overrides build.
  EXPECT_TRUE(parse({"serve", "--threads", "64", "--sockets", "8",
                     "--cores-per-socket", "8"})
                  .ok());
  // Serve flags belong to serve.
  EXPECT_FALSE(parse({"detect", "--tenants", "4"}).ok());
}

TEST(Cli, ServeConfigErrorsAreUsageErrors) {
  // Every serve range check is ServeOptions::validate(), which parse_cli
  // runs: a configuration the service would refuse is a usage error (exit
  // 2), never a runtime failure or a silent run without the fault.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--queue-bytes", "0"},       {"--deadline-events", "0"},
      {"--session-budget", "100"},  {"--window-pages", "0"},
      {"--sweep-every", "0"},       {"--total-budget", "1"},
      {"--drift-threshold", "nan"}, {"--corrupt-tenant", "-5"},
      {"--threads", "64"}};
  for (const auto& [flag, value] : cases) {
    const CliOptions opt = parse({"serve", flag, value});
    EXPECT_FALSE(opt.ok()) << flag << " " << value;
    EXPECT_EQ(run_cli(opt), 2) << flag << " " << value;
  }
}

TEST(Cli, UnknownAppIsAUsageError) {
  // The workload registry decides which names exist; parse_cli asks it.
  const CliOptions bad = parse({"detect", "--app", "FOO"});
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("FOO"), std::string::npos) << bad.error;
  EXPECT_EQ(run_cli(bad), 2);
  EXPECT_FALSE(parse({"suite", "--apps", "EP,FOO"}).ok());
  EXPECT_FALSE(parse({"dynamic", "--app", "mp:sp"}).ok());
  // Four threads, so the two-app multiprogram workload fits the machine.
  for (const char* app : {"churn", "mp:sp+cg", "sp", "SP"}) {
    const CliOptions opt = parse({"detect", "--app", app, "--threads", "4"});
    EXPECT_TRUE(opt.ok()) << app << ": " << opt.error;
  }
}

TEST(Cli, MoreThreadsThanCoresIsAUsageError) {
  // Each simulating command builds its workload at parse time and checks
  // its thread count against the machine: a placement of 16 threads on the
  // 8-core default machine cannot exist, so the run never starts.
  for (const char* command :
       {"detect", "map", "evaluate", "dynamic", "suite"}) {
    const CliOptions opt = parse({command, "--threads", "16", "--app", "EP"});
    EXPECT_FALSE(opt.ok()) << command;
    EXPECT_EQ(run_cli(opt), 2) << command;
  }
  EXPECT_FALSE(parse({"suite", "--threads", "16", "--apps", "EP"}).ok());
  EXPECT_TRUE(parse({"suite", "--threads", "16", "--apps", "EP", "--sockets",
                     "4"})
                  .ok());
  // A multiprogram app runs apps x threads threads.
  const CliOptions mp = parse({"evaluate", "--threads", "16", "--app",
                               "mp:sp+cg"});
  EXPECT_FALSE(mp.ok());
  EXPECT_EQ(run_cli(mp), 2);
  EXPECT_FALSE(parse({"evaluate", "--threads", "8", "--app", "mp:sp+cg"}).ok());
  EXPECT_FALSE(
      parse({"suite", "--threads", "8", "--apps", "EP,mp:sp+cg"}).ok());
  const CliOptions fits = parse({"evaluate", "--threads", "4", "--app",
                                 "mp:sp+cg"});
  EXPECT_TRUE(fits.ok()) << fits.error;
  // So does a multiprogram serve fleet: 2 apps x 8 threads per tenant.
  const CliOptions serve = parse({"serve", "--app", "mp:sp+cg", "--threads",
                                  "8"});
  EXPECT_FALSE(serve.ok());
  EXPECT_EQ(run_cli(serve), 2);
  EXPECT_TRUE(parse({"serve", "--app", "mp:sp+cg", "--threads", "4"}).ok());
  // record simulates nothing: any thread count records.
  EXPECT_TRUE(parse({"record", "--threads", "16", "--out", "/tmp/x"}).ok());
}

/// A value `option` accepts under every command it applies to.
std::string valid_value(const CliOption& option) {
  // --app names a registered workload; the serve fleet's default 8 threads
  // must fit the machine the topology overrides build.
  static const std::map<std::string_view, std::string> kSpecial = {
      {"--mechanism", "hm"},         {"--mapping-strategy", "edmonds"},
      {"--obs-level", "full"},       {"--session-budget", "65536"},
      {"--total-budget", "8388608"}, {"--app", "EP"},
      {"--sockets", "2"},            {"--cores-per-socket", "4"}};
  if (const auto it = kSpecial.find(option.name); it != kSpecial.end()) {
    return it->second;
  }
  switch (option.kind()) {
    case CliOption::Kind::kDouble: return "0.5";
    case CliOption::Kind::kString: return "/tmp/tlbmap_cli_table";
    case CliOption::Kind::kList: return "EP,SP";
    case CliOption::Kind::kMapping: return "1,0";
    default: return "1";
  }
}

TEST(CliTable, EveryOptionIsDocumentedAndGatedByItsCommands) {
  const std::string usage = cli_usage();
  const auto commands = cli_commands();
  for (const CliOption& option : cli_options()) {
    std::vector<std::string> spellings = {std::string(option.name)};
    if (!option.alias.empty()) spellings.emplace_back(option.alias);
    for (const std::string& name : spellings) {
      EXPECT_NE(usage.find(name), std::string::npos) << name;
      for (std::size_t c = 0; c < commands.size(); ++c) {
        const bool applies = (option.commands >> c & 1u) != 0;
        std::vector<std::string> args = {std::string(commands[c].name), name};
        // Outside its commands even a zero value is rejected, so a no-op
        // setting cannot hide a misplaced option.
        if (option.kind() != CliOption::Kind::kFlag) {
          args.push_back(applies ? valid_value(option) : "0");
        }
        // record/replay need a directory, --resume a checkpoint directory.
        args.insert(args.end(), {"--out", "/tmp/tlbmap_cli_table"});
        if (name == "--resume") {
          args.insert(args.end(), {"--checkpoint-dir", "/tmp/tlbmap_ckpt"});
        }
        const CliOptions opt = parse(args);
        if (applies) {
          EXPECT_TRUE(opt.ok()) << args[0] << " " << name << ": " << opt.error;
        } else {
          EXPECT_FALSE(opt.ok()) << args[0] << " " << name;
          EXPECT_NE(opt.error.find(name), std::string::npos)
              << args[0] << ": " << opt.error;
        }
      }
    }
  }
  // record builds no simulated machine, so the fault and watchdog options
  // are refused there even at their zero defaults.
  for (const char* name : {"--fault-seed", "--fault-drop-rate",
                           "--fault-sweep-delay", "--watchdog-events"}) {
    EXPECT_FALSE(parse({"record", "--out", "/tmp/x", name, "0"}).ok()) << name;
  }
}

TEST(Cli, ServeAcceptsCheckpointFlags) {
  // The crash-safety flags apply to the two long-running commands: the
  // suite and the serve daemon.
  const CliOptions opt =
      parse({"serve", "--checkpoint-dir", "/tmp/svc", "--resume"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.checkpoint_dir, "/tmp/svc");
  EXPECT_TRUE(opt.resume);
  EXPECT_FALSE(parse({"serve", "--resume"}).ok());  // needs the dir
}

TEST(Cli, TopologyAndStrategyFlagsParsed) {
  const CliOptions opt =
      parse({"detect", "--sockets", "32", "--cores-per-socket", "8",
             "--cores-per-l2", "1", "--mesh-cols", "8",
             "--mapping-strategy", "multisection", "--threads", "64"});
  ASSERT_TRUE(opt.ok()) << opt.error;
  EXPECT_EQ(opt.sockets, 32);
  EXPECT_EQ(opt.cores_per_socket, 8);
  EXPECT_EQ(opt.cores_per_l2, 1);
  EXPECT_EQ(opt.mesh_cols, 8);
  EXPECT_EQ(opt.mapping_strategy, "multisection");

  const CliOptions defaults = parse({"detect"});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.sockets, 0);  // 0 = keep the preset's topology
  EXPECT_EQ(defaults.mesh_cols, 0);
  EXPECT_EQ(defaults.mapping_strategy, "auto");
}

TEST(Cli, TopologyAndStrategyFlagsValidated) {
  EXPECT_FALSE(parse({"detect", "--sockets", "-2"}).ok());
  EXPECT_FALSE(parse({"detect", "--mesh-cols", "-1"}).ok());
  EXPECT_FALSE(parse({"detect", "--cores-per-socket", "abc"}).ok());
  // greedy matching is an ablation comparator, not a production strategy.
  for (const char* name : {"blossom", "greedy"}) {
    const CliOptions bad = parse({"detect", "--mapping-strategy", name});
    EXPECT_FALSE(bad.ok()) << name;
    EXPECT_NE(bad.error.find(name), std::string::npos) << bad.error;
  }
  for (const char* name : {"auto", "edmonds", "multisection"}) {
    EXPECT_TRUE(parse({"detect", "--mapping-strategy", name}).ok()) << name;
  }
}

TEST(Cli, RemovedMachineWorkersFlagRejected) {
  // A stale script asking for the removed epoch engine, or for a reference
  // walk that is now library-only, must get a usage error, not a quiet run
  // on the default path.
  const CliOptions opt = parse({"evaluate", "--machine-workers", "4"});
  EXPECT_FALSE(opt.ok());
  EXPECT_NE(opt.error.find("--machine-workers"), std::string::npos);
  for (const char* flag :
       {"--hm-naive-sweep", "--coherence-broadcast", "--scalar-scan"}) {
    const CliOptions stale = parse({"evaluate", flag});
    EXPECT_FALSE(stale.ok()) << flag;
    EXPECT_NE(stale.error.find(flag), std::string::npos) << stale.error;
  }
}

TEST(CliRun, InconsistentTopologyOverrideFailsStructurally) {
  // Geometry that MachineConfig::validate rejects (3 cores per socket with
  // 2 per L2) must come back as a usage error (exit 2), not an uncaught
  // throw: parse_cli builds the machine to check the thread count.
  CliOptions opt = parse({"detect", "--app", "IS", "--cores-per-socket", "3",
                          "--cores-per-l2", "2", "--threads", "2"});
  EXPECT_FALSE(opt.ok());
  EXPECT_EQ(run_cli(opt), 2);
}

TEST(CliFuzz, GarbageNeverAbortsAlwaysStructured) {
  // Property-style sweep: every parse either succeeds or fails with a
  // non-empty error message — never throws, never aborts, never UB.
  const std::vector<std::vector<const char*>> cases = {
      {"detect", "--threads", "-3"},
      {"detect", "--threads", "99999999999999999999"},
      {"detect", "--threads", "8abc"},
      {"detect", "--threads", ""},
      {"detect", "--seed", "-1"},
      {"detect", "--seed", "+4"},
      {"detect", "--seed", "0x10"},
      {"detect", "--size-scale", "1e"},
      {"detect", "--size-scale", "inf garbage"},
      {"detect", "--iter-scale", "--reps"},
      {"detect", "--fault-seed", "-9"},
      {"detect", "--fault-drop-rate", "0.5extra"},
      {"detect", "--fault-sweep-delay", "1.5"},
      {"detect", "--fault-sweep-delay", "-1"},
      {"detect", "--watchdog-events", "ten"},
      {"suite", "--apps", ",,,"},
      {"evaluate", "--mapping", "0,1,2,"},
      {"evaluate", "--mapping", "-1,0"},
      {"evaluate", "--mapping", "999999999999999999999,0"},
      {"replay", "--in", ""},
      {"detect", "--obs-level"},
      {"detect", "\xff\xfe"},
      {"--fault-drop-rate", "0.1"},  // flag before any command
  };
  for (const auto& argv_tail : cases) {
    std::vector<const char*> argv = {"tlbmap_cli"};
    argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
    CliOptions opt;
    ASSERT_NO_THROW(
        opt = parse_cli(static_cast<int>(argv.size()), argv.data()))
        << "argv[1]=" << argv_tail[0];
    if (!opt.ok()) {
      EXPECT_FALSE(opt.error.empty()) << "argv[1]=" << argv_tail[0];
    }
  }
}

TEST(CliFuzz, NumericBoundsAreStrict) {
  // Full-token parsing: trailing junk and embedded signs are rejected
  // (stoull would silently wrap "-1" to 2^64-1).
  EXPECT_FALSE(parse({"detect", "--seed", "1 2"}).ok());
  EXPECT_FALSE(parse({"detect", "--fault-seed", "+1"}).ok());
  EXPECT_FALSE(parse({"detect", "--watchdog-events", "-5"}).ok());
  EXPECT_FALSE(parse({"detect", "--reps", "2.5"}).ok());
  // Plain values still parse.
  EXPECT_TRUE(parse({"detect", "--seed", "18446744073709551615"}).ok());
  EXPECT_TRUE(parse({"detect", "--reps", "3"}).ok());
}

TEST(CliRun, UsageErrorExitCode) {
  EXPECT_EQ(run_cli(parse({"nonsense"})), 2);
  EXPECT_EQ(run_cli(parse({"--help"})), 0);
}

TEST(CliRun, DetectMapEvaluateSmoke) {
  // Small scales keep this fast; stdout goes to the test log.
  CliOptions detect = parse({"detect", "--app", "EP", "--iter-scale", "0.2"});
  EXPECT_EQ(run_cli(detect), 0);
  CliOptions map = parse({"map", "--app", "EP", "--iter-scale", "0.2"});
  EXPECT_EQ(run_cli(map), 0);
  CliOptions eval = parse({"evaluate", "--app", "EP", "--iter-scale", "0.2",
                           "--reps", "1", "--mapping", "0,1,2,3,4,5,6,7"});
  EXPECT_EQ(run_cli(eval), 0);
}

TEST(CliRun, DynamicStartsEveryMultiprogramThread) {
  // mp:sp+cg at 4 threads per app runs 8 threads; the random start
  // placement must cover all of them, not just --threads.
  CliOptions dynamic = parse({"dynamic", "--app", "mp:sp+cg", "--threads",
                              "4", "--iter-scale", "0.05", "--size-scale",
                              "0.05"});
  ASSERT_TRUE(dynamic.ok()) << dynamic.error;
  EXPECT_EQ(run_cli(dynamic), 0);
}

TEST(CliRun, EvaluateRejectsBadMappingAtRuntime) {
  CliOptions eval = parse({"evaluate", "--app", "EP", "--iter-scale", "0.2",
                           "--reps", "1", "--mapping", "0,0,1,2,3,4,5,6"});
  EXPECT_EQ(run_cli(eval), 1);
}

TEST(CliRun, DegradedSuiteExitsOneWithoutRatios) {
  // A watchdog budget no run fits in fails every task. The zeroed result
  // slots must not be printed as ratios, the exit code says the suite
  // failed, and the manifest still records the degraded run.
  const std::string manifest = "/tmp/tlbmap_cli_test_degraded_manifest.json";
  std::remove(manifest.c_str());
  CliOptions opt = parse({"suite", "--apps", "EP", "--reps", "1",
                          "--iter-scale", "0.05", "--size-scale", "0.05",
                          "--watchdog-events", "16", "--manifest-out",
                          manifest.c_str()});
  ASSERT_TRUE(opt.ok()) << opt.error;
  testing::internal::CaptureStdout();
  const int code = run_cli(opt);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 1);
  EXPECT_EQ(out.find("SM/OS"), std::string::npos) << out;
  std::ifstream in(manifest);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"degraded\": true"), std::string::npos) << text;
  std::remove(manifest.c_str());
}

TEST(CliRun, ObsArtifactsWritten) {
  const std::string trace_path = "/tmp/tlbmap_cli_test_trace.json";
  const std::string metrics_path = "/tmp/tlbmap_cli_test_metrics.jsonl";
  CliOptions opt = parse({"evaluate", "--app", "EP", "--iter-scale", "0.2",
                          "--reps", "1", "--trace-out", trace_path.c_str(),
                          "--metrics-out", metrics_path.c_str()});
  ASSERT_TRUE(opt.ok()) << opt.error;
  ASSERT_EQ(run_cli(opt), 0);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_buf;
  trace_buf << trace.rdbuf();
  // Chrome-trace shape with the pipeline's phase spans inside.
  EXPECT_EQ(trace_buf.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace_buf.str().find("pipeline.detect"), std::string::npos);
  EXPECT_NE(trace_buf.str().find("pipeline.evaluate"), std::string::npos);

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics.rdbuf();
  EXPECT_NE(metrics_buf.str().find("detector.searches"), std::string::npos);
  EXPECT_NE(metrics_buf.str().find("pipeline.phase_wall_us"),
            std::string::npos);
  EXPECT_NE(metrics_buf.str().find("\"type\":\"matrix\""),
            std::string::npos);
}

TEST(CliRun, RecordReplayRoundTrip) {
  const std::string dir = "/tmp/tlbmap_cli_test_recording";
  CliOptions record = parse({"record", "--app", "EP", "--iter-scale", "0.2",
                             "--out", dir.c_str()});
  ASSERT_EQ(run_cli(record), 0);
  CliOptions replay = parse({"replay", "--in", dir.c_str()});
  EXPECT_EQ(run_cli(replay), 0);
  CliOptions missing = parse({"replay", "--in", "/tmp/tlbmap_nonexistent"});
  EXPECT_EQ(run_cli(missing), 1);
}

}  // namespace
}  // namespace tlbmap
