// Tests for the experiment harness: metric extraction, summaries, cache
// keys, and the results cache (a completed suite checkpoint).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "obs/obs.hpp"

namespace tlbmap {
namespace {

TEST(Experiment, MetricValues) {
  MachineStats s;
  s.execution_cycles = static_cast<Cycles>(kClockHz);  // exactly 1 second
  s.invalidations = 10;
  s.snoop_transactions = 20;
  s.l2_misses = 30;
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kTimeSeconds), 1.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kInvalidations), 10.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kSnoops), 20.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kL2Misses), 30.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kInvalidationsPerSec), 10.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kSnoopsPerSec), 20.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kL2MissesPerSec), 30.0);
}

MappingRuns runs_with_cycles(std::initializer_list<Cycles> cycles) {
  MappingRuns r;
  r.label = "X";
  for (const Cycles c : cycles) {
    MachineStats s;
    s.execution_cycles = c;
    r.runs.push_back(s);
  }
  return r;
}

TEST(Experiment, SummarizeRuns) {
  const MappingRuns r = runs_with_cycles({100, 200, 300});
  const Summary s = summarize_runs(r, Metric::kTimeSeconds);
  EXPECT_EQ(s.n, 3u);
  EXPECT_NEAR(s.mean, cycles_to_seconds(200), 1e-15);
}

TEST(Experiment, NormalizedAgainstOs) {
  AppExperiment app;
  app.os_runs = runs_with_cycles({200, 200});
  app.sm_runs = runs_with_cycles({100, 100});
  EXPECT_DOUBLE_EQ(app.normalized(app.sm_runs, Metric::kTimeSeconds), 0.5);
}

TEST(Experiment, NormalizedZeroBaselineSafe) {
  AppExperiment app;
  app.os_runs = runs_with_cycles({0});
  app.sm_runs = runs_with_cycles({100});
  EXPECT_DOUBLE_EQ(app.normalized(app.sm_runs, Metric::kTimeSeconds), 1.0);
}

TEST(Experiment, CacheKeyStableAndSensitive) {
  const SuiteConfig a;
  SuiteConfig b;
  EXPECT_EQ(suite_cache_key(a), suite_cache_key(b));
  b.repetitions += 1;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(b));
  SuiteConfig c;
  c.sm.sample_threshold = 55;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(c));
  SuiteConfig d;
  d.apps = {"BT"};
  EXPECT_NE(suite_cache_key(a), suite_cache_key(d));
  SuiteConfig e;
  e.machine.tlb.entries = 128;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(e));
}

// Cache latencies and the line size change every simulated cycle count, so
// a suite differing only in one of them must not replay another's results.
TEST(Experiment, SuiteKeyCoversCacheLatenciesAndLineSize) {
  const std::uint64_t base = suite_config_hash(SuiteConfig{});
  SuiteConfig l1_latency;
  l1_latency.machine.l1.latency = 20;
  SuiteConfig l2_latency;
  l2_latency.machine.l2.latency = 80;
  SuiteConfig line_size;
  line_size.machine.l1.line_size = 128;
  line_size.machine.l2.line_size = 128;
  for (const SuiteConfig* changed : {&l1_latency, &l2_latency, &line_size}) {
    EXPECT_NE(suite_config_hash(*changed), base);
  }
  EXPECT_NE(suite_config_hash(l1_latency), suite_config_hash(l2_latency));
}

/// One-app suite small enough to run several times in a unit test.
SuiteConfig tiny_suite() {
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 2;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  return config;
}

/// Points the results cache at a fresh per-test directory, with any
/// TLBMAP_NO_CACHE override lifted, for the guard's lifetime.
class CacheDirGuard {
 public:
  explicit CacheDirGuard(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) /
             ("tlbmap_cache_" + name + "_" + std::to_string(::getpid()))),
        old_dir_(getenv_opt("TLBMAP_CACHE_DIR")),
        old_no_cache_(getenv_opt("TLBMAP_NO_CACHE")) {
    std::filesystem::remove_all(dir_);
    ::setenv("TLBMAP_CACHE_DIR", dir_.c_str(), 1);
    ::unsetenv("TLBMAP_NO_CACHE");
  }
  ~CacheDirGuard() {
    restore("TLBMAP_CACHE_DIR", old_dir_);
    restore("TLBMAP_NO_CACHE", old_no_cache_);
    std::filesystem::remove_all(dir_);
  }

  const std::filesystem::path& dir() const { return dir_; }

 private:
  static std::optional<std::string> getenv_opt(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr) return std::nullopt;
    return std::string(v);
  }
  static void restore(const char* name, const std::optional<std::string>& v) {
    if (v) {
      ::setenv(name, v->c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }

  std::filesystem::path dir_;
  std::optional<std::string> old_dir_;
  std::optional<std::string> old_no_cache_;
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Experiment, CacheHitReplaysFreshResult) {
  const CacheDirGuard cache("hit");
  SuiteConfig config = tiny_suite();
  const SuiteResult fresh = run_suite(config);
  ASSERT_FALSE(fresh.degraded());
  ASSERT_TRUE(std::filesystem::exists(cache.dir() / suite_cache_key(config)));

  // The manifest path is not part of the cache key, so this is a hit.
  config.manifest_out = (cache.dir() / "manifest.json").string();
  std::ostringstream progress;
  obs::ObsContext ctx;
  const SuiteResult cached = run_suite(config, &progress, &ctx);
  EXPECT_TRUE(cached.apps == fresh.apps);
  EXPECT_FALSE(cached.interrupted);
  EXPECT_NE(progress.str().find("loaded cached results"), std::string::npos);
  EXPECT_NE(slurp(config.manifest_out).find("\"cache_hit\": \"true\""),
            std::string::npos);
  // Every task (3 detect + 2 reps x 3 eval) came from the entry.
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.resumed_tasks"), 9u);
}

TEST(Experiment, CorruptCacheEntryIsRecomputedAndReplaced) {
  const CacheDirGuard cache("corrupt");
  const SuiteConfig config = tiny_suite();
  const SuiteResult fresh = run_suite(config);
  ASSERT_FALSE(fresh.degraded());

  // Flip one payload byte (the envelope header is 28 bytes).
  const std::filesystem::path entry = cache.dir() / suite_cache_key(config);
  Expected<std::string> bytes = read_file(entry);
  ASSERT_TRUE(bytes.has_value());
  ASSERT_GT(bytes->size(), 28u);
  (*bytes)[28 + (bytes->size() - 28) / 2] ^= 0x01;
  ASSERT_TRUE(atomic_write_file(entry, *bytes).has_value());

  std::ostringstream progress;
  const SuiteResult rerun = run_suite(config, &progress);
  EXPECT_NE(progress.str().find(to_string(ErrorCode::kCorruptCheckpoint)),
            std::string::npos);
  EXPECT_EQ(progress.str().find("loaded cached results"), std::string::npos);
  EXPECT_TRUE(rerun.apps == fresh.apps);

  // The fresh run overwrote the damaged entry with a complete one.
  const auto left = load_checkpoint(entry, suite_config_hash(config));
  ASSERT_TRUE(left.has_value()) << left.error().to_string();
  EXPECT_EQ(left->detect_done.size(), 3u);
  EXPECT_TRUE(left->map_done);
  EXPECT_EQ(left->eval_done.size(), 6u);
}

TEST(Experiment, UnfinishedCacheEntryIsRecomputed) {
  // A sound envelope for this config that is not a finished suite (say, a
  // suite.ckpt copied into the cache) is never trusted as a result.
  const CacheDirGuard cache("unfinished");
  const SuiteConfig config = tiny_suite();
  SuiteConfig uncached = config;
  uncached.use_cache = false;
  const SuiteResult reference = run_suite(uncached);

  SuiteCheckpoint partial;
  partial.config_hash = suite_config_hash(config);
  partial.detect_tasks = 3;
  partial.eval_tasks = 6;
  partial.detect_done[0] = reference.apps[0].sm_detection;
  const std::filesystem::path entry = cache.dir() / suite_cache_key(config);
  std::filesystem::create_directories(cache.dir());
  ASSERT_TRUE(save_checkpoint(entry, partial).has_value());

  std::ostringstream progress;
  obs::ObsContext ctx;
  const SuiteResult result = run_suite(config, &progress, &ctx);
  EXPECT_NE(progress.str().find("unfinished suite"), std::string::npos);
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.resumed_tasks"), 0u);
  EXPECT_TRUE(result.apps == reference.apps);
  const auto left = load_checkpoint(entry, suite_config_hash(config));
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->eval_done.size(), 6u);
}

TEST(Experiment, CacheWriteEvictsStaleEntriesOnly) {
  const CacheDirGuard cache("evict");
  const SuiteConfig config = tiny_suite();
  const std::string key = suite_cache_key(config);
  ASSERT_EQ(key.rfind("suite_v", 0), 0u) << key;
  const std::string current = key.substr(0, key.find('_', 7) + 1);
  // Seed: a pre-checkpoint text entry, an unversioned and an old-version
  // checkpoint entry (unreadable), a current-version entry of another
  // config (kept), and files that are not tlbmap cache entries (kept).
  const std::vector<std::string> stale = {
      "suite_1234abcd.txt", "suite_1234abcd.ckpt", "suite_v1_1234abcd.ckpt"};
  const std::vector<std::string> kept = {current + "ffff.ckpt", "notes.txt",
                                         "suite_notes.md", "other_1.ckpt"};
  std::filesystem::create_directories(cache.dir());
  for (const auto& lists : {stale, kept}) {
    for (const std::string& name : lists) {
      ASSERT_TRUE(atomic_write_file(cache.dir() / name, "x").has_value());
    }
  }

  std::ostringstream progress;
  ASSERT_FALSE(run_suite(config, &progress).degraded());
  EXPECT_NE(progress.str().find("stale cache entries evicted: 3"),
            std::string::npos)
      << progress.str();
  EXPECT_TRUE(std::filesystem::exists(cache.dir() / key));
  for (const std::string& name : stale) {
    EXPECT_FALSE(std::filesystem::exists(cache.dir() / name)) << name;
  }
  for (const std::string& name : kept) {
    EXPECT_TRUE(std::filesystem::exists(cache.dir() / name)) << name;
  }
}

TEST(Experiment, RunSuiteSingleAppSmoke) {
  // A minimal end-to-end suite run: one app, tiny repetitions, no cache.
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  const SuiteResult result = run_suite(config);
  ASSERT_EQ(result.apps.size(), 1u);
  const AppExperiment& app = result.apps[0];
  EXPECT_EQ(app.app, "EP");
  EXPECT_EQ(app.os_runs.runs.size(), 1u);
  EXPECT_TRUE(is_valid_mapping(app.sm_mapping, 8));
  EXPECT_TRUE(is_valid_mapping(app.hm_mapping, 8));
  EXPECT_GT(app.sm_detection.stats.accesses, 0u);
}

// `suite --apps EP --reps 1 --iter-scale 0.05 --size-scale 0.05
// --watchdog-events 16`: every detect task trips the watchdog. The SM and
// HM evaluations have no mapping to run, so they are skipped; the OS
// evaluation needs no detection and fails on its own watchdog. Each
// failure is reported once, with its own cause.
TEST(Experiment, FailedDetectionSkipsItsMapAndEvaluateTasks) {
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.05;
  config.workload.size_scale = 0.05;
  config.machine.watchdog_max_events = 16;

  const SuiteResult result = run_suite(config);
  ASSERT_TRUE(result.degraded());
  std::vector<std::string> messages;
  for (const Error& err : result.failures) {
    EXPECT_EQ(err.code, ErrorCode::kWorkerFailure);
    messages.push_back(err.message);
  }
  const std::string watchdog = "[watchdog_timeout]";
  ASSERT_EQ(messages.size(), 4u) << ::testing::PrintToString(messages);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(messages[static_cast<std::size_t>(t)].rfind(
                  "detect task " + std::to_string(t) + " failed: " + watchdog,
                  0),
              0u)
        << messages[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(messages[3].rfind("evaluate task 0 failed: " + watchdog, 0), 0u)
      << messages[3];

  const AppExperiment& app = result.apps[0];
  EXPECT_TRUE(app.sm_mapping.empty());
  EXPECT_TRUE(app.hm_mapping.empty());
  EXPECT_EQ(app.sm_runs.runs[0].accesses, 0u);
  EXPECT_EQ(app.hm_runs.runs[0].accesses, 0u);
}

TEST(Experiment, RunSuiteWritesManifestAndSeries) {
  const std::string manifest_path =
      testing::TempDir() + "tlbmap_suite_manifest.json";
  std::remove(manifest_path.c_str());

  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  config.parallel_workers = 1;  // deterministic interval-sample ordering
  config.metrics_interval_events = 50'000;
  config.manifest_out = manifest_path;

  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  const SuiteResult result = run_suite(config, nullptr, &ctx);
  ASSERT_EQ(result.apps.size(), 1u);

  // The manifest landed (atomically: no .tmp sibling left behind) and holds
  // the schema fields CI and humans key on.
  ASSERT_TRUE(std::filesystem::exists(manifest_path));
  std::ifstream in(manifest_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string manifest = buf.str();
  EXPECT_NE(manifest.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(manifest.find("\"command\": \"suite\""), std::string::npos);
  EXPECT_NE(manifest.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(manifest.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(manifest.find("\"max_rss_kb\""), std::string::npos);
  EXPECT_NE(manifest.find("\"phases\""), std::string::npos);
  EXPECT_NE(manifest.find("\"collapsed_sim_cycles\""), std::string::npos);
  EXPECT_NE(manifest.find("suite;detect;EP;SM"), std::string::npos);
  EXPECT_NE(manifest.find("\"cache_hit\": \"false\""), std::string::npos);
  bool tmp_left = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.find("tlbmap_suite_manifest") != std::string::npos &&
        name != "tlbmap_suite_manifest.json") {
      tmp_left = true;
    }
  }
  EXPECT_FALSE(tmp_left);

  // Interval telemetry flowed through the suite: interval samples from the
  // machines plus the three suite phase-boundary samples, in order.
  const auto samples = ctx.metrics.series().samples();
  ASSERT_FALSE(samples.empty());
  std::vector<std::string> suite_phases;
  for (const auto& s : samples) {
    if (s.reason.rfind("phase:suite.", 0) == 0) {
      suite_phases.push_back(s.reason);
    }
  }
  ASSERT_EQ(suite_phases.size(), 3u);
  EXPECT_EQ(suite_phases[0], "phase:suite.detect");
  EXPECT_EQ(suite_phases[1], "phase:suite.map");
  EXPECT_EQ(suite_phases[2], "phase:suite.evaluate");

  std::remove(manifest_path.c_str());
}

}  // namespace
}  // namespace tlbmap
