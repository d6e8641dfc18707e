#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/io.hpp"
#include "core/shutdown.hpp"
#include "core/worker_pool.hpp"
#include "npb/synthetic.hpp"
#include "obs/selfprof.hpp"

namespace tlbmap {

namespace {

/// Bump when workload definitions or counter semantics change, so stale
/// cache entries are never reused across library revisions.
constexpr int kSchemaVersion = 14;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::filesystem::path cache_dir() {
  if (const char* dir = std::getenv("TLBMAP_CACHE_DIR")) {
    return dir;
  }
  return std::filesystem::temp_directory_path() / "tlbmap_cache";
}

/// Every cache entry this build writes starts with this prefix, so entries
/// of other schema versions are recognisable by name alone.
std::string cache_entry_prefix() {
  return "suite_v" + std::to_string(kSchemaVersion) + "_";
}

/// Deletes the cache entries no build of this schema can read: files named
/// like tlbmap's own entries (`suite_*.txt`, the pre-checkpoint text
/// format, and `suite_*.ckpt`) that lack the current version prefix.
/// Anything else in the directory is left alone. Returns the count removed.
int evict_stale_cache_entries(const std::filesystem::path& dir) {
  const std::string current = cache_entry_prefix();
  int removed = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::directory_entry& entry = *it;
    const std::string name = entry.path().filename().string();
    const std::string ext = entry.path().extension().string();
    if (name.rfind("suite_", 0) != 0 || (ext != ".txt" && ext != ".ckpt") ||
        name.rfind(current, 0) == 0) {
      continue;
    }
    std::error_code rm_ec;
    if (entry.is_regular_file(rm_ec) &&
        std::filesystem::remove(entry.path(), rm_ec)) {
      ++removed;
    }
  }
  return removed;
}

bool cache_disabled() {
  const char* v = std::getenv("TLBMAP_NO_CACHE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Everything that affects suite results, in one canonical string. Hashed
/// for both the cache file name and the checkpoint config fingerprint.
/// The crash-safety knobs (checkpoint_dir / resume) are deliberately
/// absent: they change durability, not results.
std::string suite_key_string(const SuiteConfig& c) {
  std::ostringstream key;
  key << "v" << kSchemaVersion << '|' << c.machine.num_sockets << ','
      << c.machine.cores_per_socket << ',' << c.machine.cores_per_l2 << ','
      << c.machine.page_size << ',' << c.machine.l1.size_bytes << ','
      << c.machine.l1.line_size << ',' << c.machine.l1.ways << ','
      << c.machine.l1.latency << ',' << c.machine.l2.size_bytes << ','
      << c.machine.l2.line_size << ',' << c.machine.l2.ways << ','
      << c.machine.l2.latency << ',' << c.machine.tlb.entries << ','
      << c.machine.tlb.ways << ',' << c.machine.tlb.miss_penalty << ','
      << c.machine.interconnect.snoop_intra_socket << ','
      << c.machine.interconnect.snoop_inter_socket << ','
      << c.machine.interconnect.invalidate_intra_socket << ','
      << c.machine.interconnect.invalidate_inter_socket << ','
      << c.machine.interconnect.memory_latency << ','
      << c.machine.interconnect.memory_remote_extra << ','
      << c.machine.interconnect.snoop_hop_extra << ','
      << c.machine.interconnect.invalidate_hop_extra << ','
      << c.machine.socket_mesh_cols << ','
      << (c.machine.numa ? 1 : 0) << ','
      << static_cast<int>(c.machine.numa_policy) << '|'
      << static_cast<int>(c.mapping.strategy) << '|'
      // Fault plan + watchdog: a faulty suite must never collide with a
      // faultless one (or with a differently seeded/shaped fault plan).
      << c.machine.fault.seed << ',' << c.machine.fault.drop_sample_rate
      << ',' << c.machine.fault.corrupt_sample_rate << ','
      << c.machine.fault.detect_fail_rate << ','
      << c.machine.fault.sweep_skip_rate << ','
      << c.machine.fault.sweep_fail_rate << ','
      << c.machine.fault.sweep_delay_max << ','
      << c.machine.fault.matrix_flip_rate << ','
      << c.machine.fault.matrix_zero_rate << ','
      << c.machine.watchdog_max_events << '|'
      << c.workload.num_threads << ',' << c.workload.size_scale << ','
      << c.workload.iter_scale << ',' << c.workload.gap_jitter << '|'
      << c.repetitions << '|' << c.sm.sample_threshold << ','
      << c.sm.search_cost << '|' << c.hm.interval << ',' << c.hm.search_cost
      << '|' << c.oracle.window << ',' << c.oracle.granularity_shift << '|' << c.base_seed << '|'
      << c.detect_iter_scale << '|';
  for (const std::string& app : c.apps) key << app << ',';
  return key.str();
}

/// The empty snapshot of `c`: its config hash and task shape, no task done.
SuiteCheckpoint blank_checkpoint(const SuiteConfig& c) {
  SuiteCheckpoint ckpt;
  ckpt.config_hash = suite_config_hash(c);
  ckpt.detect_tasks = c.apps.size() * 3;
  ckpt.eval_tasks = c.apps.size() * 3 *
                    static_cast<std::uint64_t>(std::max(0, c.repetitions));
  return ckpt;
}

/// load_checkpoint plus the shape check behind the config hash, shared by
/// resume and the results cache. Every stored task index must lie inside
/// `blank`'s shape and a finished map phase must hold one mapping per app;
/// a snapshot that passes the CRC and the hash but not this can only be a
/// colliding corruption or a buggy producer, so it is a mismatch. A cache
/// entry (`require_complete`) must also have every task filled in.
Expected<SuiteCheckpoint> load_suite_checkpoint(
    const std::filesystem::path& file, const SuiteCheckpoint& blank,
    bool require_complete) {
  Expected<SuiteCheckpoint> loaded = load_checkpoint(file, blank.config_hash);
  if (!loaded) return loaded;
  const std::size_t num_apps = blank.detect_tasks / 3;
  bool shape_ok = loaded->detect_tasks == blank.detect_tasks &&
                  loaded->eval_tasks == blank.eval_tasks;
  for (const auto& [idx, unused] : loaded->detect_done) {
    shape_ok = shape_ok && idx < blank.detect_tasks;
  }
  for (const auto& [idx, unused] : loaded->eval_done) {
    shape_ok = shape_ok && idx < blank.eval_tasks;
  }
  if (loaded->map_done) {
    shape_ok = shape_ok && loaded->sm_mappings.size() == num_apps &&
               loaded->hm_mappings.size() == num_apps;
  }
  if (!shape_ok) {
    return Error{ErrorCode::kCheckpointMismatch,
                 "checkpoint task shape does not match this config"};
  }
  if (require_complete &&
      (!loaded->map_done || loaded->detect_done.size() != blank.detect_tasks ||
       loaded->eval_done.size() != blank.eval_tasks)) {
    return Error{ErrorCode::kCheckpointMismatch,
                 "cache entry holds an unfinished suite"};
  }
  return loaded;
}

}  // namespace

double metric_value(const MachineStats& stats, Metric metric) {
  switch (metric) {
    case Metric::kTimeSeconds:
      return cycles_to_seconds(stats.execution_cycles);
    case Metric::kInvalidations:
      return static_cast<double>(stats.invalidations);
    case Metric::kSnoops:
      return static_cast<double>(stats.snoop_transactions);
    case Metric::kL2Misses:
      return static_cast<double>(stats.l2_misses);
    case Metric::kInvalidationsPerSec:
      return per_second(stats.invalidations, stats.execution_cycles);
    case Metric::kSnoopsPerSec:
      return per_second(stats.snoop_transactions, stats.execution_cycles);
    case Metric::kL2MissesPerSec:
      return per_second(stats.l2_misses, stats.execution_cycles);
  }
  return 0.0;
}

Summary summarize_runs(const MappingRuns& runs, Metric metric) {
  std::vector<double> values;
  values.reserve(runs.runs.size());
  for (const MachineStats& s : runs.runs) {
    values.push_back(metric_value(s, metric));
  }
  return summarize(values);
}

double AppExperiment::normalized(const MappingRuns& runs,
                                 Metric metric) const {
  const double base = summarize_runs(os_runs, metric).mean;
  if (base == 0.0) return 1.0;
  return summarize_runs(runs, metric).mean / base;
}

std::string suite_cache_key(const SuiteConfig& c) {
  std::ostringstream name;
  name << cache_entry_prefix() << std::hex << fnv1a(suite_key_string(c))
       << ".ckpt";
  return name.str();
}

std::uint64_t suite_config_hash(const SuiteConfig& c) {
  return fnv1a(suite_key_string(c));
}

SuiteResult run_suite(const SuiteConfig& config, std::ostream* progress,
                      obs::ObsContext* obs) {
  // Self-profiling (DESIGN.md Sec. 13): stamp wall + rusage now so every
  // exit path — cached, interrupted, degraded, clean — can account for
  // itself in the run manifest.
  const obs::SelfProfiler profiler;
  std::vector<std::pair<std::string, std::uint64_t>> phase_wall;
  auto write_manifest = [&](const SuiteResult& res, bool cache_hit) {
    if (config.manifest_out.empty()) return;
    obs::RunManifest m;
    m.command = "suite";
    m.git_describe = obs::build_git_describe();
    m.created_utc = obs::utc_timestamp();
    m.seed = config.base_seed;
    m.config_hash = suite_config_hash(config);
    m.config_summary = suite_key_string(config);
    m.wall_seconds = profiler.wall_seconds();
    m.usage = profiler.snapshot();
    m.degraded = res.degraded();
    m.interrupted = res.interrupted;
    m.phases = phase_wall;
    if (obs::Tracer* tracer = obs::tracer_at(obs, obs::ObsLevel::kPhases)) {
      m.collapsed_wall = obs::collapsed_stacks(*tracer);
    }
    // Deterministic twin of the wall-clock stacks: simulated cycles per
    // suite task, straight from the result slots.
    std::map<std::string, std::uint64_t> sim_cycles;
    for (const AppExperiment& app : res.apps) {
      sim_cycles["suite;detect;" + app.app + ";SM"] +=
          app.sm_detection.stats.execution_cycles;
      sim_cycles["suite;detect;" + app.app + ";HM"] +=
          app.hm_detection.stats.execution_cycles;
      sim_cycles["suite;detect;" + app.app + ";oracle"] +=
          app.oracle_detection.stats.execution_cycles;
      for (const MappingRuns* runs :
           {&app.os_runs, &app.sm_runs, &app.hm_runs}) {
        std::uint64_t total = 0;
        for (const MachineStats& s : runs->runs) total += s.execution_cycles;
        sim_cycles["suite;evaluate;" + app.app + ";" + runs->label] += total;
      }
    }
    std::ostringstream collapsed;
    for (const auto& [path, weight] : sim_cycles) {
      collapsed << path << ' ' << weight << '\n';
    }
    m.collapsed_sim_cycles = collapsed.str();
    m.extra.emplace_back("cache_hit", cache_hit ? "true" : "false");
    m.extra.emplace_back("repetitions", std::to_string(config.repetitions));
    std::ostringstream apps;
    for (std::size_t i = 0; i < config.apps.size(); ++i) {
      if (i != 0) apps << ',';
      apps << config.apps[i];
    }
    m.extra.emplace_back("apps", apps.str());
    const Expected<void> written =
        atomic_write_file(config.manifest_out, m.to_json());
    if (progress != nullptr) {
      if (written) {
        *progress << "[suite] manifest written to " << config.manifest_out
                  << "\n";
      } else {
        *progress << "[suite] manifest write failed: "
                  << written.error().to_string() << "\n";
      }
    }
  };
  // Suite-level phase-boundary series samples (the pipelines inside the
  // workers take their own; these mark the three global fan-outs).
  auto sample_suite_phase = [&](const char* name, std::uint64_t sim_events) {
    if (config.metrics_interval_events == 0) return;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
      metrics->sample_series(sim_events, std::string("phase:") + name);
    }
  };

  SuiteResult result;
  result.config = config;
  const int cores = config.machine.num_cores();
  const int worker_budget =
      config.parallel_workers > 0
          ? config.parallel_workers
          : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // One persistent pool for the whole suite: both fan-out phases (detect,
  // evaluate) draw from these same threads instead of spawning fresh ones
  // per phase.
  WorkerPool pool(worker_budget);

  // Crash safety and the results cache (DESIGN.md Sec. 12) share one
  // format. Tasks are the checkpoint granularity: each is independent with
  // a preassigned seed and result slot, so a resumed suite replays exactly
  // the missing tasks and lands on a bit-identical SuiteResult, and a cache
  // entry is simply a checkpoint with every task done. Whenever
  // checkpointing or caching is on, the in-memory SuiteCheckpoint mirrors
  // every completed task and is the single source of both files;
  // `ckpt_mutex` guards it (workers commit concurrently) and saves go
  // through atomic_write_file, so a file on disk is always a complete,
  // CRC-sealed snapshot.
  const bool caching = config.use_cache && !cache_disabled();
  const bool checkpointing = !config.checkpoint_dir.empty();
  const bool mirroring = caching || checkpointing;
  const std::filesystem::path cache_file =
      cache_dir() / suite_cache_key(config);
  const std::filesystem::path ckpt_file =
      std::filesystem::path(config.checkpoint_dir) / "suite.ckpt";
  const SuiteCheckpoint blank = blank_checkpoint(config);
  SuiteCheckpoint ckpt = blank;
  std::mutex ckpt_mutex;

  auto save_ckpt_locked = [&] {  // call with ckpt_mutex held
    const Expected<void> saved = save_checkpoint(ckpt_file, ckpt);
    if (!saved) {
      if (progress != nullptr) {
        *progress << "[suite] checkpoint write failed: "
                  << saved.error().to_string() << "\n";
      }
      return;
    }
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
      metrics->counter("checkpoint.writes").add(1);
    }
  };
  // Copies task `idx` out of `done` into `slot` when the checkpoint already
  // holds it (resume or cache hit), so the task builds no Pipeline.
  auto replay = [&](const auto& done, std::size_t idx, auto& slot) {
    std::lock_guard<std::mutex> lock(ckpt_mutex);
    const auto it = done.find(idx);
    if (it == done.end()) return false;
    slot = it->second;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
      metrics->counter("checkpoint.resumed_tasks").add(1);
    }
    return true;
  };
  // Mirrors one completed task and, when checkpointing, saves at once.
  auto commit = [&](auto& done, std::size_t idx, const auto& value) {
    if (!mirroring) return;
    std::lock_guard<std::mutex> lock(ckpt_mutex);
    done.emplace(idx, value);
    if (checkpointing) save_ckpt_locked();
  };

  bool cache_hit = false;
  if (caching && std::filesystem::exists(cache_file)) {
    Expected<SuiteCheckpoint> cached =
        load_suite_checkpoint(cache_file, blank, /*require_complete=*/true);
    if (cached) {
      ckpt = std::move(*cached);
      cache_hit = true;
      if (progress != nullptr) {
        *progress << "[suite] loaded cached results from " << cache_file
                  << "\n";
      }
    } else if (progress != nullptr) {
      *progress << "[suite] cache entry " << cache_file
                << " rejected: " << cached.error().to_string()
                << "; recomputing\n";
    }
  }

  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(config.checkpoint_dir, ec);
    if (config.resume && !cache_hit) {
      if (!std::filesystem::exists(ckpt_file)) {
        if (progress != nullptr) {
          *progress << "[suite] no checkpoint at " << ckpt_file
                    << "; starting fresh\n";
        }
      } else if (Expected<SuiteCheckpoint> loaded = load_suite_checkpoint(
                     ckpt_file, blank, /*require_complete=*/false)) {
        ckpt = std::move(*loaded);
        if (progress != nullptr) {
          *progress << "[suite] resuming from " << ckpt_file << ": "
                    << ckpt.detect_done.size() << "/" << blank.detect_tasks
                    << " detect, " << ckpt.eval_done.size() << "/"
                    << blank.eval_tasks << " eval tasks done\n";
        }
      } else {
        if (progress != nullptr) {
          *progress << "[suite] checkpoint rejected: "
                    << loaded.error().to_string() << "; starting fresh\n";
        }
        if (obs::MetricsRegistry* metrics =
                obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
          metrics->counter("checkpoint.rejected").add(1);
        }
      }
    }
  }

  // The suite runs as three global phases — detect, map, evaluate — instead
  // of app-by-app: every simulation run in a phase is independent (its own
  // Machine, its own preassigned result slot), so one shared worker pool
  // drains all apps' runs at once and the tail of a short app overlaps the
  // head of a long one. Task order, seeds and slots are fixed up front, so
  // results are bit-identical for any worker count.
  //
  // Resilience (DESIGN.md Sec. 11): no exception escapes a worker. Every
  // task is a pure function of the config and its preassigned seed, so a
  // task that throws would throw again: it is folded into a structured
  // kWorkerFailure with its result slot left at its default; the caller
  // collects the failures per phase. Returns which tasks failed.
  auto run_tasks = [&](const char* phase, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
    std::vector<std::string> errors(count);
    auto guarded = [&](std::size_t idx) {
      try {
        body(idx);
      } catch (const InterruptedError&) {
        // A shutdown request is not a failure: the task simply did not
        // run. No kWorkerFailure, no degraded mode — on resume the
        // checkpoint replays it.
      } catch (const std::exception& e) {
        errors[idx] = e.what();
      } catch (...) {
        errors[idx] = "unknown exception";
      }
    };
    // Per-task wall time: wall-clock tagged so the series stream stays
    // deterministic. Histogram::observe is thread-safe.
    obs::Histogram* task_wall = nullptr;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
      task_wall =
          &metrics->wallclock_histogram("suite.task_wall_us", {{"phase", phase}});
    }
    auto timed = [&](std::size_t idx) {
      if (task_wall == nullptr) {
        guarded(idx);
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      guarded(idx);
      task_wall->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    };
    // The shared pool claims indices from an atomic cursor (a serial loop
    // for one worker or one task) and stops claiming new tasks once a
    // shutdown is pending; tasks already in flight stop themselves at the
    // Machine's next poll.
    pool.run(count, timed, [] { return shutdown_requested(); });
    std::vector<bool> failed(count, false);
    for (std::size_t idx = 0; idx < count; ++idx) {
      if (errors[idx].empty()) continue;
      failed[idx] = true;
      std::ostringstream msg;
      msg << phase << " task " << idx << " failed: " << errors[idx];
      result.failures.push_back(Error{ErrorCode::kWorkerFailure, msg.str()});
      if (progress != nullptr) {
        *progress << "[suite] DEGRADED: " << msg.str() << "\n";
      }
    }
    return failed;
  };

  // Interrupted epilogue: persist what completed, flag the result, and
  // leave the checkpoint file in place for --resume. Never caches.
  auto finalize_interrupted = [&] {
    result.interrupted = true;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
      metrics->counter("suite.interrupted").add(1);
    }
    if (checkpointing) {
      std::lock_guard<std::mutex> lock(ckpt_mutex);
      save_ckpt_locked();
      if (progress != nullptr) {
        *progress << "[suite] interrupted; progress saved to " << ckpt_file
                  << " (rerun with --resume to continue)\n";
      }
    } else if (progress != nullptr) {
      *progress << "[suite] interrupted; no checkpoint dir configured, "
                   "partial progress was discarded\n";
    }
    write_manifest(result, false);
  };

  const std::size_t num_apps = config.apps.size();
  result.apps.resize(num_apps);
  std::vector<std::unique_ptr<Workload>> eval_workloads(num_apps);
  std::vector<std::unique_ptr<Workload>> detect_workloads(num_apps);
  for (std::size_t i = 0; i < num_apps; ++i) {
    eval_workloads[i] = make_npb_workload(config.apps[i], config.workload);
    // Detection observes a longer trace (the paper detects over the whole
    // execution of the real benchmark).
    WorkloadParams detect_params = config.workload;
    detect_params.iter_scale *= config.detect_iter_scale;
    detect_workloads[i] = make_npb_workload(config.apps[i], detect_params);
    result.apps[i].app = eval_workloads[i]->name();
  }

  // Phase 1: all detection runs (3 mechanisms per app) in one pool. Each
  // accumulates its own CommMatrix. Task 3i is app i's SM run, 3i + 1 its
  // HM run and 3i + 2 its oracle run.
  std::vector<bool> detect_failed;
  {
    obs::TraceSpan span(obs::tracer_at(obs, obs::ObsLevel::kPhases),
                        "suite.detect", "suite");
    if (progress != nullptr) {
      *progress << "[suite] detect: " << num_apps << " apps x 3 mechanisms\n";
    }
    struct DetectTask {
      DetectionResult* slot;
      std::size_t app;
      Pipeline::Mechanism mechanism;
    };
    std::vector<DetectTask> tasks;
    tasks.reserve(num_apps * 3);
    for (std::size_t i = 0; i < num_apps; ++i) {
      tasks.push_back({&result.apps[i].sm_detection, i,
                       Pipeline::Mechanism::kSoftwareManaged});
      tasks.push_back({&result.apps[i].hm_detection, i,
                       Pipeline::Mechanism::kHardwareManaged});
      tasks.push_back(
          {&result.apps[i].oracle_detection, i, Pipeline::Mechanism::kOracle});
    }
    detect_failed = run_tasks("detect", tasks.size(), [&](std::size_t idx) {
      const DetectTask& task = tasks[idx];
      if (replay(ckpt.detect_done, idx, *task.slot)) return;
      Pipeline detect_pipe(config.machine);
      detect_pipe.sm_config() = config.sm;
      detect_pipe.hm_config() = config.hm;
      detect_pipe.oracle_config() = config.oracle;
      detect_pipe.set_observability(obs);
      detect_pipe.set_metrics_interval_events(config.metrics_interval_events);
      *task.slot = detect_pipe.detect(*detect_workloads[task.app],
                                      task.mechanism, config.base_seed);
      commit(ckpt.detect_done, idx, *task.slot);
    });
    phase_wall.emplace_back("suite.detect", span.elapsed_us());
  }
  std::uint64_t suite_sim_events = 0;
  for (const AppExperiment& app : result.apps) {
    suite_sim_events += app.sm_detection.stats.accesses +
                        app.hm_detection.stats.accesses +
                        app.oracle_detection.stats.accesses;
  }
  sample_suite_phase("suite.detect", suite_sim_events);
  if (shutdown_requested()) {
    finalize_interrupted();
    return result;
  }

  // Phase 2: mapping is a cheap serial step between the two fan-outs. A
  // mapping that cannot be derived (matcher failure on a corrupted matrix)
  // degrades to round-robin rather than aborting the suite. A failed
  // detection has no matrix to map: its mapping stays empty, and the
  // evaluate tasks under it are skipped, so the detect task's failure is
  // the only one reported for it.
  {
    obs::TraceSpan span(obs::tracer_at(obs, obs::ObsLevel::kPhases),
                        "suite.map", "suite");
    Pipeline map_pipe(config.machine);
    map_pipe.mapping_config() = config.mapping;
    map_pipe.set_observability(obs);
    map_pipe.set_metrics_interval_events(config.metrics_interval_events);
    auto map_or_fallback = [&](const AppExperiment& app,
                               const DetectionResult& detection) -> Mapping {
      try {
        return map_pipe.map(detection.matrix);
      } catch (const std::exception& e) {
        std::ostringstream msg;
        msg << "map task for " << app.app << " (" << detection.mechanism
            << ") failed: " << e.what() << "; using round-robin fallback";
        result.failures.push_back(
            Error{ErrorCode::kMappingFailure, msg.str()});
        if (progress != nullptr) {
          *progress << "[suite] DEGRADED: " << msg.str() << "\n";
        }
        return round_robin_mapping(map_pipe.topology(),
                                   detection.matrix.size());
      }
    };
    if (ckpt.map_done) {
      // Mapping is deterministic given the detections, so replaying it
      // would land on the same placements; restoring keeps the checkpoint
      // the single source of truth (and skips any fallback re-reporting).
      for (std::size_t i = 0; i < num_apps; ++i) {
        result.apps[i].sm_mapping = ckpt.sm_mappings[i];
        result.apps[i].hm_mapping = ckpt.hm_mappings[i];
      }
    } else {
      for (std::size_t i = 0; i < num_apps; ++i) {
        AppExperiment& app = result.apps[i];
        if (!detect_failed[3 * i]) {
          app.sm_mapping = map_or_fallback(app, app.sm_detection);
        }
        if (!detect_failed[3 * i + 1]) {
          app.hm_mapping = map_or_fallback(app, app.hm_detection);
        }
      }
      if (mirroring) {
        std::lock_guard<std::mutex> lock(ckpt_mutex);
        ckpt.map_done = true;
        for (const AppExperiment& app : result.apps) {
          ckpt.sm_mappings.push_back(app.sm_mapping);
          ckpt.hm_mappings.push_back(app.hm_mapping);
        }
        if (checkpointing) save_ckpt_locked();
      }
    }
    phase_wall.emplace_back("suite.map", span.elapsed_us());
  }
  sample_suite_phase("suite.map", suite_sim_events);
  if (shutdown_requested()) {
    finalize_interrupted();
    return result;
  }

  // Phase 3: all evaluation runs (3 mappings x repetitions per app) in one
  // pool.
  {
    obs::TraceSpan span(obs::tracer_at(obs, obs::ObsLevel::kPhases),
                        "suite.evaluate", "suite");
    if (progress != nullptr) {
      *progress << "[suite] evaluate: " << num_apps << " apps x 3 mappings x "
                << config.repetitions << " repetitions\n";
    }
    const int reps = config.repetitions;
    struct EvalTask {
      MachineStats* slot;
      std::size_t app;
      Mapping mapping;
      std::uint64_t run_seed;
    };
    std::vector<EvalTask> tasks;
    tasks.reserve(num_apps * static_cast<std::size_t>(reps) * 3);
    for (std::size_t i = 0; i < num_apps; ++i) {
      AppExperiment& app = result.apps[i];
      app.os_runs.label = "OS";
      app.sm_runs.label = "SM";
      app.hm_runs.label = "HM";
      app.os_runs.runs.resize(static_cast<std::size_t>(reps));
      app.sm_runs.runs.resize(static_cast<std::size_t>(reps));
      app.hm_runs.runs.resize(static_cast<std::size_t>(reps));
      for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t run_seed =
            config.base_seed + 1000 + static_cast<std::uint64_t>(rep);
        // The OS baseline lands on fresh random cores every run.
        const Mapping os_mapping = random_mapping(
            eval_workloads[i]->num_threads(), cores,
            config.base_seed * 7919 + i * 131 +
                static_cast<std::uint64_t>(rep));
        tasks.push_back({&app.os_runs.runs[static_cast<std::size_t>(rep)], i,
                         os_mapping, run_seed});
        tasks.push_back({&app.sm_runs.runs[static_cast<std::size_t>(rep)], i,
                         app.sm_mapping, run_seed});
        tasks.push_back({&app.hm_runs.runs[static_cast<std::size_t>(rep)], i,
                         app.hm_mapping, run_seed});
      }
    }
    run_tasks("evaluate", tasks.size(), [&](std::size_t idx) {
      const EvalTask& task = tasks[idx];
      if (task.mapping.empty()) return;  // its detection failed (phase 2)
      if (replay(ckpt.eval_done, idx, *task.slot)) return;
      Pipeline worker_pipe(config.machine);
      // The tracer and registry are thread-safe; evaluation spans from
      // parallel workers interleave in the ring like any other events.
      worker_pipe.set_observability(obs);
      worker_pipe.set_metrics_interval_events(config.metrics_interval_events);
      *task.slot = worker_pipe.evaluate(*eval_workloads[task.app],
                                        task.mapping, task.run_seed);
      commit(ckpt.eval_done, idx, *task.slot);
    });
    phase_wall.emplace_back("suite.evaluate", span.elapsed_us());
  }
  for (const AppExperiment& app : result.apps) {
    for (const MappingRuns* runs :
         {&app.os_runs, &app.sm_runs, &app.hm_runs}) {
      for (const MachineStats& s : runs->runs) suite_sim_events += s.accesses;
    }
  }
  sample_suite_phase("suite.evaluate", suite_sim_events);
  if (shutdown_requested()) {
    finalize_interrupted();
    return result;
  }

  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs, obs::ObsLevel::kPhases)) {
    metrics->counter("suite.worker_failures")
        .add(static_cast<std::uint64_t>(result.failures.size()));
    metrics->gauge("pipeline.degraded_mode")
        .set(result.degraded() ? 1.0 : 0.0);
  }
  if (result.degraded()) {
    // Degraded results (zeroed slots, fallback mappings) must never poison
    // the cache: the next run should recompute, not inherit the damage.
    // The checkpoint stays: it holds only the tasks that *did* complete,
    // so a --resume rerun replays just the failed ones.
    if (progress != nullptr) {
      *progress << "[suite] " << result.failures.size()
                << " task(s) failed; result is degraded and will not be"
                   " cached\n";
    }
    write_manifest(result, false);
    return result;
  }
  // Clean completion: the checkpoint has served its purpose — retire it so
  // a later run in the same directory starts from scratch.
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::remove(ckpt_file, ec);
  }
  if (caching && !cache_hit) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir(), ec);
    if (!ec) {
      // The mirror now holds every task: save it as the cache entry
      // (atomically, so a crash or a concurrent reader mid-write never
      // sees a torn entry). A rejected entry is overwritten here.
      const Expected<void> written = save_checkpoint(cache_file, ckpt);
      if (written) {
        const int evicted = evict_stale_cache_entries(cache_dir());
        if (progress != nullptr) {
          *progress << "[suite] cached results at " << cache_file << "\n";
          if (evicted > 0) {
            *progress << "[suite] stale cache entries evicted: " << evicted
                      << "\n";
          }
        }
      } else if (progress != nullptr) {
        *progress << "[suite] cache write failed: "
                  << written.error().to_string() << "\n";
      }
    }
  }
  write_manifest(result, cache_hit);
  return result;
}

CommMatrix pair_truth_matrix(int num_threads, int shift) {
  CommMatrix m(num_threads);
  const int n = num_threads;
  for (int t = 0; t < n; ++t) {
    // Under shift s, partner pairs are (s, s+1), (s+2, s+3), ... mod n;
    // add each pair's unit edge once (from its even-rank member).
    const int r = ((t - shift) % n + n) % n;
    if (r % 2 == 0 && t != (t + 1) % n) {
      m.add(static_cast<ThreadId>(t), static_cast<ThreadId>((t + 1) % n), 1);
    }
  }
  return m;
}

ChurnScenarioResult run_churn_scenario(const ChurnScenarioConfig& config) {
  if (config.shifts.empty()) {
    throw std::invalid_argument("churn scenario: shifts must be non-empty");
  }
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kScheduled;
  spec.num_threads = config.num_threads;
  spec.shift_schedule = config.shifts;
  spec.churn_phase_iters = 1;
  spec.shared_accesses = config.shared_accesses;
  spec.private_accesses = config.private_accesses;
  const auto workload = make_synthetic(spec);

  Pipeline pipe(config.machine);
  const Mapping initial = config.initial.empty()
                              ? identity_mapping(config.num_threads)
                              : config.initial;
  const CommMatrix tail =
      pair_truth_matrix(config.num_threads, config.shifts.back());

  auto run_arm = [&](const OnlineMapperConfig& arm) {
    ChurnArmResult r;
    r.run = pipe.evaluate_dynamic(*workload, initial, arm, config.seed);
    r.final_cost = mapping_cost(tail, r.run.final_mapping, pipe.topology());
    return r;
  };

  ChurnScenarioResult result;
  OnlineMapperConfig never = config.online;
  never.remap_every_barriers = 0;  // 0 = remapping disabled
  result.never_remap = run_arm(never);
  OnlineMapperConfig noroll = config.online;
  noroll.rollback = false;
  result.no_rollback = run_arm(noroll);
  result.canary = run_arm(config.online);
  return result;
}

}  // namespace tlbmap
