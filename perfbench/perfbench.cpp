// tlbmap benchmark driver: one process, one driving thread.
//
//   tlbmap_perfbench --workload paper_8t|manycore_256|serve_fleet
//                    --seed N --seconds S --trace 0|1
//                    [--scale full|tiny] [--inject stat|mapping]
//
// Each workload is a fixed list of calls into the library's public layer
// APIs (Pipeline, map_threads, MappingService), with every input generated
// here from --seed. The list runs in repeated passes for --seconds. Host
// time is the sum over calls of each call's median time over the passes,
// normalized by a calibration loop to cancel the host's speed drift (see
// "Host-time estimator" below). Every pass must reproduce the same
// outputs bit for bit, and every output is checked. --trace 1 alternates untraced and traced passes and reports
// per-layer metrics instead of end-to-end ones. The last stdout line is
// the JSON result; README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "mapping/mapping.hpp"
#include "mapping/strategy.hpp"
#include "npb/workload.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/trace_file.hpp"
#include "svc/service.hpp"

namespace {

using namespace tlbmap;
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Percentile with linear interpolation between the closest ranks, so the
/// 50th of an even count is the mean of the two middle values.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// ---------------------------------------------------------------------------
// Output checks. An operation is one API call plus the check of its output;
// it fails when the call throws, returns an error other than the expected
// flow-control ones, or its output fails the check.

class Ledger {
 public:
  /// `inject` deliberately corrupts the first checked stat or mapping, so
  /// tests can prove the checks catch it.
  explicit Ledger(std::string inject) : inject_(std::move(inject)) {}

  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (errors_.size() < 16) errors_.push_back(what);
  }

  void check_stats(MachineStats s, const std::string& what) {
    if (inject_ == "stat") {
      s.reads += 1;
      inject_.clear();
    }
    op(s.accesses > 0 && s.reads + s.writes == s.accesses &&
           s.tlb_hits + s.tlb_misses == s.accesses &&
           s.l1_hits + s.l1_misses == s.accesses,
       what + ": inconsistent MachineStats");
  }

  void check_mapping(Mapping m, int num_cores, int num_threads,
                     const std::string& what) {
    if (inject_ == "mapping" && m.size() >= 2) {
      m[1] = m[0];
      inject_.clear();
    }
    op(static_cast<int>(m.size()) == num_threads &&
           is_valid_mapping(m, num_cores),
       what + ": invalid mapping");
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string inject_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// FNV-1a over every simulated counter, matrix and mapping a pass produces:
/// a host-speed-only change must leave it unchanged.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(const MachineStats& s) {
    for (const std::uint64_t v :
         {s.accesses, s.reads, s.writes, s.tlb_hits, s.tlb_misses, s.l1_hits,
          s.l1_misses, s.l2_accesses, s.l2_hits, s.l2_misses, s.invalidations,
          s.snoop_transactions, s.writebacks, s.memory_fetches,
          s.memory_fetches_local, s.memory_fetches_remote,
          s.intra_socket_messages, s.inter_socket_messages,
          s.execution_cycles, s.detection_overhead_cycles,
          s.detector_searches}) {
      add(v);
    }
  }
  void add(const CommMatrix& m) {
    add(static_cast<std::uint64_t>(m.size()));
    for (ThreadId a = 0; a < m.size(); ++a) {
      for (ThreadId b = a + 1; b < m.size(); ++b) add(m.at(a, b));
    }
  }
  void add(const Mapping& m) {
    add(m.size());
    for (const CoreId c : m) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------------
// Host-time estimator.
//
// The host's speed drifts. On a shared 4-vCPU VM, back-to-back runs of one
// SP evaluate call ranged over 2x within 90 s, and a fixed calibration loop
// timed between them moved with it (correlation 0.80; the p10-p90 spread
// fell from 48% to 19% once divided by the loop's time). So every timed
// unit is divided by the latest calibration, re-measured every
// kRecalibrateS, and reported in reference seconds: seconds on a host
// where the loop takes kCalibrationRefS. A unit's value is the median of
// its normalized times over the passes, which also drops one-off stalls.

constexpr double kCalibrationRefS = 0.003;
constexpr double kRecalibrateS = 0.15;

/// Random reads from a 4 MiB table: the shape of the simulator's cache
/// lookups in miniature, independent of the library's code.
class HostSpeed {
 public:
  HostSpeed() : table_(1u << 20) {
    std::uint64_t state = 1;
    for (std::uint32_t& v : table_) v = static_cast<std::uint32_t>(splitmix64(state));
  }

  /// Reference seconds per host second, measured now.
  double measure() {
    const auto t0 = Clock::now();
    std::uint64_t state = 7;
    std::uint64_t h = 0;
    for (int i = 0; i < 500'000; ++i) {
      const std::uint32_t v = table_[splitmix64(state) & (table_.size() - 1)];
      h += v;
      if (v & 1) h ^= h >> 3;
    }
    sink_ = h;
    return kCalibrationRefS / elapsed_s(t0);
  }

 private:
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop from being elided
};

/// Normalized times of each timed unit over the passes, keyed by the
/// unit's position in the pass (a pass is a fixed sequence, so position
/// identifies the call).
class Samples {
 public:
  void rewind() { next_ = 0; }

  void record(const std::string& key, double seconds) {
    if (next_ == keys_.size()) {
      keys_.push_back(key);
      samples_.emplace_back();
    } else if (keys_[next_] != key) {
      throw std::logic_error("pass structure changed at " + key);
    }
    samples_[next_].push_back(seconds);
    ++next_;
  }

  const std::vector<std::string>& keys() const { return keys_; }
  /// Median over the passes of each unit, in key order.
  std::vector<double> medians() const {
    std::vector<double> out;
    for (const std::vector<double>& s : samples_) out.push_back(percentile(s, 50.0));
    return out;
  }
  double total() const { return sum(""); }
  /// Sum of the medians of the units whose key starts with `prefix`.
  double sum(std::string_view prefix) const {
    const std::vector<double> med = medians();
    double total = 0.0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i].starts_with(prefix)) total += med[i];
    }
    return total;
  }

 private:
  std::vector<std::string> keys_;
  std::vector<std::vector<double>> samples_;
  std::size_t next_ = 0;
};

/// Times the calls of one pass. A step is a unit of wall_s (one top-level
/// API call, or one service tick); inside a step, calls are timed only in
/// traced passes, where each also records a span on the tracer and adds
/// to its kind's per-pass total.
class PassTimer {
 public:
  PassTimer() : scale_(host_.measure()), calibrated_at_(Clock::now()) {}

  void begin_pass(bool traced) {
    traced_ = traced;
    steps_[traced ? 1 : 0].rewind();
    span_totals_.clear();
    span_counts_.clear();
  }

  void end_pass() {
    if (!traced_) return;
    spans_.rewind();
    for (const auto& [key, seconds] : span_totals_) spans_.record(key, seconds);
  }

  template <class F>
  void step(const std::string& key, F&& fn) {
    recalibrate_if_due();
    in_step_ = true;
    const auto t0 = Clock::now();
    fn();
    const double host_s = elapsed_s(t0);
    steps_[traced_ ? 1 : 0].record(key, host_s * scale_across(host_s));
    in_step_ = false;
  }

  /// One API call: `layer` and `kind` name the span ("sim", "evaluate"),
  /// `who` the app or tenant.
  template <class F>
  auto call(const char* layer, const char* kind, const std::string& who,
            F&& fn) {
    if (in_step_ && !traced_) return fn();
    if (!in_step_) recalibrate_if_due();
    const std::uint64_t ts_us = traced_ ? tracer_.now_us() : 0;
    const auto t0 = Clock::now();
    auto result = fn();
    const double host_s = elapsed_s(t0);
    const std::string key = std::string(layer) + "." + kind;
    if (traced_) {
      span_totals_[key] += host_s * scale_;
      ++span_counts_[key];
      tracer_.record_span(kind, layer, ts_us,
                          static_cast<std::uint64_t>(host_s * 1e6),
                          "\"who\":" + obs::json_str(who));
    }
    if (!in_step_) {
      steps_[traced_ ? 1 : 0].record(key + "/" + who,
                                     host_s * scale_across(host_s));
    }
    return result;
  }

  /// Reference seconds of `fn`, calibrated at both ends.
  template <class F>
  double measure(F&& fn) {
    scale_ = host_.measure();
    const auto t0 = Clock::now();
    fn();
    const double host_s = elapsed_s(t0);
    return host_s * scale_across(std::max(host_s, kRecalibrateS));
  }

  const Samples& steps(bool traced) const { return steps_[traced ? 1 : 0]; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Per-pass totals of each span kind over the traced passes.
  const Samples& spans() const { return spans_; }
  /// Spans of one kind in one pass.
  std::size_t span_count(const std::string& key) const {
    const auto it = span_counts_.find(key);
    return it == span_counts_.end() ? 0 : it->second;
  }

 private:
  void recalibrate_if_due() {
    if (elapsed_s(calibrated_at_) < kRecalibrateS) return;
    scale_ = host_.measure();
    calibrated_at_ = Clock::now();
  }

  /// Scale for a unit that just took `host_s`: a long unit is calibrated
  /// again at its end and gets the mean of both ends.
  double scale_across(double host_s) {
    if (host_s < kRecalibrateS) return scale_;
    const double before = scale_;
    scale_ = host_.measure();
    calibrated_at_ = Clock::now();
    return (before + scale_) / 2.0;
  }

  HostSpeed host_;
  double scale_;  ///< reference seconds per host second
  Clock::time_point calibrated_at_;
  bool traced_ = false;
  bool in_step_ = false;
  Samples steps_[2];  ///< [untraced, traced]
  Samples spans_;     ///< traced passes only
  std::map<std::string, double> span_totals_;
  std::map<std::string, std::size_t> span_counts_;
  obs::Tracer tracer_{1 << 16};
};

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/test_perfbench.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"events_per_s", "1/s"},   {"peak_rss_mb", "MB"},
    {"ok_rate", "fraction"},   {"mapped_speedup", "ratio"},
    {"fig6_error", "ratio"},   {"map_cost", "ratio"},
    {"decision_p50_ms", "ms"}, {"decision_p99_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"npb.gen_ns_per_event", "ns"},
    {"sim.evaluate_s", "s"},
    {"sim.ns_per_access", "ns"},
    {"sim.execution_cycles", "cycles"},
    {"sim.tlb_misses", "count"},
    {"sim.l1_misses", "count"},
    {"sim.l2_misses", "count"},
    {"sim.invalidations", "count"},
    {"sim.snoop_transactions", "count"},
    {"sim.memory_fetches_remote", "count"},
    {"sim.inter_socket_messages", "count"},
    {"detect.sm_s", "s"},
    {"detect.hm_s", "s"},
    {"detect.oracle_s", "s"},
    {"detect.sm_overhead_s", "s"},
    {"detect.hm_overhead_s", "s"},
    {"detect.sm_searches", "count"},
    {"detect.hm_sweeps", "count"},
    {"detect.overhead_cycle_share", "fraction"},
    {"detect.sm_cosine", "ratio"},
    {"detect.hm_cosine", "ratio"},
    {"mapping.map_ms.n8", "ms"},
    {"mapping.map_ms.n256", "ms"},
    {"mapping.map_ms.n1024", "ms"},
    {"mapping.map_ms.n4096", "ms"},
    {"mapping.cost_ratio.n8", "ratio"},
    {"mapping.cost_ratio.n256", "ratio"},
    {"mapping.cost_ratio.n1024", "ratio"},
    {"mapping.cost_ratio.n4096", "ratio"},
    {"dynamic.s", "s"},
    {"dynamic.remap_decisions", "count"},
    {"dynamic.migrations", "count"},
    {"dynamic.rollbacks", "count"},
    {"dynamic.time_ratio", "ratio"},
    {"svc.ingest_s", "s"},
    {"svc.pump_s", "s"},
    {"svc.decision_s", "s"},
    {"svc.decode_ns_per_event", "ns"},
    {"svc.queued_bytes_p99", "bytes"},
    {"svc.backpressure", "count"},
    {"svc.rematches", "count"},
    {"svc.rematch_share", "ratio"},
    {"obs.decision_samples", "count"},
    {"obs.passes", "count"},
    {"obs.trace_overhead", "ratio"},
};

using Metrics = std::map<std::string, double>;

/// Mean per-call reference milliseconds of the traced spans of `key`.
double mean_ms(const PassTimer& timer, const std::string& key) {
  const std::size_t n = timer.span_count(key);
  return n == 0 ? 0.0 : timer.spans().sum(key) * 1e3 / static_cast<double>(n);
}

/// mapping_cost of `mapping` over the round-robin placement's cost, both
/// under `comm`; nullopt when round robin costs nothing (no signal).
std::optional<double> cost_ratio(const CommMatrix& comm, const Mapping& mapping,
                                 const Topology& topology) {
  const double base = mapping_cost(
      comm, round_robin_mapping(topology, comm.size()), topology);
  if (base <= 0.0) return std::nullopt;
  return mapping_cost(comm, mapping, topology) / base;
}

/// Time and event count of draining `workload`'s streams without
/// simulating them (the trace generator's own cost).
void drain_streams(PassTimer& timer, const Workload& workload,
                   std::uint64_t seed, std::uint64_t& events,
                   double& seconds) {
  seconds += timer.measure([&] {
    for (ThreadId t = 0; t < workload.num_threads(); ++t) {
      const auto stream = workload.stream(t, seed);
      while (stream->next().kind != TraceEvent::Kind::kEnd) ++events;
    }
  });
}

void add_sim_counts(Metrics& m, const MachineStats& s) {
  m["sim.execution_cycles"] += static_cast<double>(s.execution_cycles);
  m["sim.tlb_misses"] += static_cast<double>(s.tlb_misses);
  m["sim.l1_misses"] += static_cast<double>(s.l1_misses);
  m["sim.l2_misses"] += static_cast<double>(s.l2_misses);
  m["sim.invalidations"] += static_cast<double>(s.invalidations);
  m["sim.snoop_transactions"] += static_cast<double>(s.snoop_transactions);
  m["sim.memory_fetches_remote"] +=
      static_cast<double>(s.memory_fetches_remote);
  m["sim.inter_socket_messages"] +=
      static_cast<double>(s.inter_socket_messages);
}

// The OS scheduler lands threads on fresh random cores every run, so its
// simulated time is the mean over this many placements (suite seeding).
constexpr std::uint64_t kOsPlacements = 4;

// The paper's Fig. 6 SM bars: execution time under the SM mapping over the
// OS scheduler (EXPERIMENTS.md).
double fig6_reference(const std::string& app) {
  static const std::map<std::string, double> kRef = {
      {"BT", 0.92}, {"CG", 1.00}, {"EP", 0.98}, {"FT", 1.00}, {"IS", 1.00},
      {"LU", 0.95}, {"MG", 0.96}, {"SP", 0.85}, {"UA", 0.94}};
  return kRef.at(app);
}

double mean_cycles(const std::vector<MachineStats>& runs) {
  double sum = 0.0;
  for (const MachineStats& s : runs) sum += static_cast<double>(s.execution_cycles);
  return sum / static_cast<double>(runs.size());
}

double cycle_ratio(const MachineStats& num, const MachineStats& den) {
  return static_cast<double>(num.execution_cycles) /
         static_cast<double>(den.execution_cycles);
}

// ---------------------------------------------------------------------------
// Workloads.

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Builds every input from the seed and makes one untimed warm-up call.
  virtual void setup() = 0;
  /// The fixed work: one pass of API calls, each output checked.
  virtual void pass(PassTimer& timer, Ledger& ledger, Digest& digest) = 0;
  /// Simulated accesses (or decoded events) of one pass.
  virtual std::uint64_t events_per_pass() const = 0;
  /// Ingest-to-decision latencies (reference s), from the untraced
  /// per-unit medians.
  virtual std::vector<double> decision_latencies(const Samples& steps) const = 0;
  /// mapped_speedup, fig6_error and map_cost of the last pass's outputs.
  virtual void quality(Ledger& ledger, Metrics& out) = 0;
  /// Traced run: per-layer metrics, including the attribution probes.
  /// Runs after quality(), whose metrics `out` already holds.
  virtual void layers(PassTimer& timer, Ledger& ledger,
                      Metrics& out) = 0;
};

/// The paper's protocol (Secs. V/VI) on the 2x4-core Harpertown model.
class Paper8t final : public BenchWorkload {
 public:
  Paper8t(std::uint64_t seed, bool tiny) : seed_(seed), pipe_(MachineConfig{}) {
    eval_params_.size_scale = tiny ? 0.1 : 0.25;
    eval_params_.iter_scale = tiny ? 0.02 : 0.2;
    // The online mapper decides every 4 barriers, so it runs on the CLI's
    // default SP (12 iterations) rather than the shortened evaluation trace.
    dynamic_params_.size_scale = tiny ? 0.1 : 1.0;
    dynamic_params_.iter_scale = tiny ? 0.1 : 1.0;
    // Suite detector parameters, scaled to the short traces.
    const SuiteConfig suite;
    pipe_.sm_config() = suite.sm;
    pipe_.hm_config() = suite.hm;
    pipe_.oracle_config() = suite.oracle;
    detect_iter_scale_ = suite.detect_iter_scale;
  }

  void setup() override {
    apps_.clear();
    const std::vector<std::string>& names = npb_workload_names();
    WorkloadParams detect_params = eval_params_;
    detect_params.iter_scale *= detect_iter_scale_;
    for (std::size_t i = 0; i < names.size(); ++i) {
      App app;
      app.name = names[i];
      app.eval = make_npb_workload(app.name, eval_params_);
      app.detect = make_npb_workload(app.name, detect_params);
      for (std::uint64_t rep = 0; rep < kOsPlacements; ++rep) {
        app.os.push_back(random_mapping(8, 8, seed_ * 7919 + i * 131 + rep));
      }
      app.os_run.resize(kOsPlacements);
      apps_.push_back(std::move(app));
    }
    dynamic_sp_ = make_npb_workload("SP", dynamic_params_);
    dynamic_start_ = random_mapping(8, 8, seed_ + 99);  // CLI seeding
    // Warm-up call: the static run from the online mapper's start, which
    // dynamic.time_ratio compares against.
    dynamic_static_ = pipe_.evaluate(*dynamic_sp_, dynamic_start_, seed_);
  }

  void pass(PassTimer& timer, Ledger& ledger, Digest& digest) override {
    for (App& app : apps_) {
      for (int m = 0; m < 3; ++m) {
        static constexpr const char* kKind[] = {"SM", "HM", "oracle"};
        app.det[m] = timer.call("detect", kKind[m], app.name, [&] {
          return pipe_.detect(*app.detect, kMechanisms[m], seed_);
        });
        ledger.check_stats(app.det[m].stats, "detect " + app.name);
        digest.add(app.det[m].stats);
        digest.add(app.det[m].matrix);
      }
    }
    for (App& app : apps_) {
      for (int m = 0; m < 2; ++m) {
        app.map[m] = timer.call("mapping", "map.n8", app.name + kMapped[m],
                                [&] { return pipe_.map(app.det[m].matrix); });
        ledger.check_mapping(app.map[m], 8, 8, "map " + app.name);
        digest.add(app.map[m]);
      }
    }
    for (App& app : apps_) {
      for (std::size_t r = 0; r < app.os.size(); ++r) {
        app.os_run[r] = timer.call("sim", "evaluate", app.name + "/OS", [&] {
          return pipe_.evaluate(*app.eval, app.os[r], run_seed());
        });
        ledger.check_stats(app.os_run[r], "evaluate " + app.name);
        digest.add(app.os_run[r]);
      }
      for (int m = 0; m < 2; ++m) {
        app.run[m] = timer.call("sim", "evaluate", app.name + kMapped[m], [&] {
          return pipe_.evaluate(*app.eval, app.map[m], run_seed());
        });
        ledger.check_stats(app.run[m], "evaluate " + app.name);
        digest.add(app.run[m]);
      }
    }
    dynamic_ = timer.call("dynamic", "run", "SP", [&] {
      return pipe_.evaluate_dynamic(*dynamic_sp_, dynamic_start_,
                                    OnlineMapperConfig{}, seed_);
    });
    ledger.check_stats(dynamic_.stats, "dynamic SP");
    ledger.check_mapping(dynamic_.final_mapping, 8, 8, "dynamic SP");
    digest.add(dynamic_.stats);
    digest.add(dynamic_.final_mapping);
  }

  std::uint64_t events_per_pass() const override {
    std::uint64_t events = dynamic_.stats.accesses;
    for (const App& app : apps_) {
      for (const DetectionResult& d : app.det) events += d.stats.accesses;
      for (const MachineStats& s : app.os_run) events += s.accesses;
      for (const MachineStats& s : app.run) events += s.accesses;
    }
    return events;
  }

  std::vector<double> decision_latencies(const Samples& steps) const override {
    // A batch decision runs from the start of detection to the return of
    // the mapping, per app and mechanism.
    std::vector<double> out;
    for (const App& app : apps_) {
      for (int m = 0; m < 2; ++m) {
        out.push_back(
            steps.sum("detect." + std::string(kMapped[m] + 1) + "/" + app.name) +
            steps.sum("mapping.map.n8/" + app.name + kMapped[m]));
      }
    }
    return out;
  }

  void quality(Ledger& ledger, Metrics& out) override {
    const Topology& topo = pipe_.topology();
    std::vector<double> speedups, errors, costs;
    for (const App& app : apps_) {
      const double os = mean_cycles(app.os_run);
      for (const MachineStats& mapped : app.run) {
        speedups.push_back(os / static_cast<double>(mapped.execution_cycles));
      }
      errors.push_back(std::abs(
          static_cast<double>(app.run[0].execution_cycles) / os -
          fig6_reference(app.name)));
      for (int m = 0; m < 2; ++m) {
        if (const auto r = cost_ratio(app.det[m].matrix, app.map[m], topo)) {
          costs.push_back(*r);
        }
      }
    }
    ledger.op(!costs.empty(), "paper_8t: no mappable matrix");
    out["mapped_speedup"] = geomean(speedups);
    out["fig6_error"] = mean(errors);
    out["map_cost"] = geomean(costs);
  }

  void layers(PassTimer& timer, Ledger& ledger, Metrics& out) override {
    const Samples& spans = timer.spans();
    std::uint64_t eval_accesses = 0;
    for (const App& app : apps_) {
      for (const MachineStats& s : app.os_run) {
        eval_accesses += s.accesses;
        add_sim_counts(out, s);
      }
      for (const MachineStats& s : app.run) {
        eval_accesses += s.accesses;
        add_sim_counts(out, s);
      }
    }
    out["sim.evaluate_s"] = spans.sum("sim.evaluate");
    out["sim.ns_per_access"] =
        out["sim.evaluate_s"] * 1e9 / static_cast<double>(eval_accesses);
    out["detect.sm_s"] = spans.sum("detect.SM");
    out["detect.hm_s"] = spans.sum("detect.HM");
    out["detect.oracle_s"] = spans.sum("detect.oracle");

    // Attribution probes: stream generation alone, and each detection
    // trace evaluated under the identity placement with no detector.
    std::uint64_t gen_events = 0;
    double gen_s = 0.0;
    double identity_s = 0.0;
    std::uint64_t overhead_cycles = 0;
    std::uint64_t detect_cycles = 0;
    std::vector<double> sm_cos, hm_cos;
    for (const App& app : apps_) {
      drain_streams(timer, *app.eval, run_seed(), gen_events, gen_s);
      MachineStats s;
      identity_s += timer.measure([&] {
        s = pipe_.evaluate(*app.detect, identity_mapping(8), seed_);
      });
      ledger.check_stats(s, "identity probe " + app.name);
      for (int m = 0; m < 2; ++m) {
        overhead_cycles += app.det[m].stats.detection_overhead_cycles;
        detect_cycles += app.det[m].stats.execution_cycles;
      }
      out["detect.sm_searches"] += static_cast<double>(app.det[0].searches);
      out["detect.hm_sweeps"] += static_cast<double>(app.det[1].searches);
      sm_cos.push_back(
          CommMatrix::cosine_similarity(app.det[0].matrix, app.det[2].matrix));
      hm_cos.push_back(
          CommMatrix::cosine_similarity(app.det[1].matrix, app.det[2].matrix));
    }
    out["npb.gen_ns_per_event"] = gen_s * 1e9 / static_cast<double>(gen_events);
    out["detect.sm_overhead_s"] = out["detect.sm_s"] - identity_s;
    out["detect.hm_overhead_s"] = out["detect.hm_s"] - identity_s;
    out["detect.overhead_cycle_share"] =
        static_cast<double>(overhead_cycles) / static_cast<double>(detect_cycles);
    out["detect.sm_cosine"] = mean(sm_cos);
    out["detect.hm_cosine"] = mean(hm_cos);
    out["mapping.map_ms.n8"] = mean_ms(timer, "mapping.map.n8");
    out["mapping.cost_ratio.n8"] = out.at("map_cost");  // all maps are n8

    out["dynamic.s"] = spans.sum("dynamic.run");
    out["dynamic.remap_decisions"] = dynamic_.remap_decisions;
    out["dynamic.migrations"] = dynamic_.migrations;
    out["dynamic.rollbacks"] = dynamic_.rollbacks;
    ledger.check_stats(dynamic_static_, "dynamic static run");
    out["dynamic.time_ratio"] = cycle_ratio(dynamic_.stats, dynamic_static_);
  }

 private:
  static constexpr const char* kMapped[] = {"/SM", "/HM"};
  static constexpr Pipeline::Mechanism kMechanisms[] = {
      Pipeline::Mechanism::kSoftwareManaged,
      Pipeline::Mechanism::kHardwareManaged, Pipeline::Mechanism::kOracle};

  struct App {
    std::string name;
    std::unique_ptr<Workload> eval;
    std::unique_ptr<Workload> detect;
    std::vector<Mapping> os;
    DetectionResult det[3];  ///< SM, HM, oracle
    Mapping map[2];          ///< SM, HM
    std::vector<MachineStats> os_run;
    MachineStats run[2];     ///< under map[0], map[1]
  };

  std::uint64_t run_seed() const { return seed_ + 1000; }  // suite seeding

  std::uint64_t seed_;
  Pipeline pipe_;
  WorkloadParams eval_params_;
  WorkloadParams dynamic_params_;
  double detect_iter_scale_ = 4.0;
  std::vector<App> apps_;
  std::unique_ptr<Workload> dynamic_sp_;
  Mapping dynamic_start_;
  MachineStats dynamic_static_;
  Pipeline::DynamicRunResult dynamic_;
};

/// Seeded synthetic communication matrix: a +-1..3 neighbour band plus a
/// sparse random background.
CommMatrix synthetic_matrix(int n, std::uint64_t seed) {
  CommMatrix m(n);
  std::uint64_t state = seed;
  for (ThreadId a = 0; a < n; ++a) {
    for (int d = 1; d <= 3 && a + d < n; ++d) {
      m.add(a, a + d, (1024u >> (2 * (d - 1))) + splitmix64(state) % 64);
    }
  }
  for (int k = 0; k < 2 * n; ++k) {
    const auto a = static_cast<ThreadId>(splitmix64(state) % n);
    const auto b = static_cast<ThreadId>(splitmix64(state) % n);
    m.add(a, b, 1 + splitmix64(state) % 16);
  }
  return m;
}

/// MachineConfig::manycore()'s tile geometry scaled to `sockets` sockets
/// on a 16-column mesh.
MachineConfig scaled_manycore(int sockets) {
  MachineConfig c = MachineConfig::manycore();
  c.num_sockets = sockets;
  c.socket_mesh_cols = 16;
  return c;
}

/// 256 cores, NUMA, mesh, small caches: SP at 256 threads, then mapping
/// alone at 1024 and 4096 threads.
class Manycore256 final : public BenchWorkload {
 public:
  Manycore256(std::uint64_t seed, bool tiny)
      : seed_(seed), pipe_(MachineConfig::manycore()) {
    params_.num_threads = 256;
    params_.size_scale = tiny ? 0.02 : 0.25;
    params_.iter_scale = tiny ? 0.05 : 0.1;
    // Suite parameters, with the HM interval and sweep cost both divided
    // by a further 16 (same overhead ratio) so the short trace sees sweeps.
    const SuiteConfig suite;
    pipe_.sm_config() = suite.sm;
    pipe_.hm_config() = HmDetectorConfig{suite.hm.interval / 16,
                                         suite.hm.search_cost / 16};
    synthetic_sizes_ = tiny ? std::vector<int>{1024}
                            : std::vector<int>{1024, 4096};
  }

  void setup() override {
    sp_ = make_npb_workload("SP", params_);
    os_ = random_mapping(256, 256, seed_ * 7919);
    synthetic_.clear();
    for (const int n : synthetic_sizes_) {
      Synthetic s;
      s.n = n;
      s.who = "n" + std::to_string(n);
      s.topology = std::make_unique<Topology>(scaled_manycore(n / 8));
      s.matrix = synthetic_matrix(n, seed_ * 31 + static_cast<std::uint64_t>(n));
      synthetic_.push_back(std::move(s));
    }
    (void)map_threads(synthetic_.front().matrix, *synthetic_.front().topology);
  }

  void pass(PassTimer& timer, Ledger& ledger, Digest& digest) override {
    for (int m = 0; m < 2; ++m) {
      static constexpr const char* kKind[] = {"SM", "HM"};
      det_[m] = timer.call("detect", kKind[m], "SP", [&] {
        return pipe_.detect(*sp_, m == 0 ? Pipeline::Mechanism::kSoftwareManaged
                                         : Pipeline::Mechanism::kHardwareManaged,
                            seed_);
      });
      ledger.check_stats(det_[m].stats, "detect SP256");
      digest.add(det_[m].stats);
      digest.add(det_[m].matrix);
    }
    for (int m = 0; m < 2; ++m) {
      map_[m] = timer.call("mapping", "map.n256", kMapped[m],
                           [&] { return pipe_.map(det_[m].matrix); });
      ledger.check_mapping(map_[m], 256, 256, "map SP256");
      digest.add(map_[m]);
    }
    const Mapping* placements[] = {&os_, &map_[1]};
    for (int r = 0; r < 2; ++r) {
      run_[r] = timer.call("sim", "evaluate", kPlaced[r], [&] {
        return pipe_.evaluate(*sp_, *placements[r], seed_ + 1000);
      });
      ledger.check_stats(run_[r], "evaluate SP256");
      digest.add(run_[r]);
    }
    for (Synthetic& s : synthetic_) {
      const std::string kind = "map." + s.who;
      s.mapping = timer.call("mapping", kind.c_str(), s.who,
                             [&] { return map_threads(s.matrix, *s.topology); });
      ledger.check_mapping(s.mapping, s.topology->num_cores(), s.n,
                           "map " + s.who);
      digest.add(s.mapping);
    }
  }

  std::uint64_t events_per_pass() const override {
    return det_[0].stats.accesses + det_[1].stats.accesses +
           run_[0].accesses + run_[1].accesses;
  }

  std::vector<double> decision_latencies(const Samples& steps) const override {
    std::vector<double> out = {
        steps.sum("detect.SM/SP") + steps.sum("mapping.map.n256/SP/SM"),
        steps.sum("detect.HM/SP") + steps.sum("mapping.map.n256/SP/HM")};
    for (const Synthetic& s : synthetic_) {
      out.push_back(steps.sum("mapping.map." + s.who + "/" + s.who));
    }
    return out;
  }

  void quality(Ledger& ledger, Metrics& out) override {
    std::vector<double> costs;
    for (int m = 0; m < 2; ++m) {
      if (const auto r = cost_ratio(det_[m].matrix, map_[m], pipe_.topology())) {
        costs.push_back(*r);
      }
    }
    for (const Synthetic& s : synthetic_) {
      if (const auto r = cost_ratio(s.matrix, s.mapping, *s.topology)) {
        costs.push_back(*r);
      }
    }
    ledger.op(!costs.empty(), "manycore_256: no mappable matrix");
    out["mapped_speedup"] = cycle_ratio(run_[0], run_[1]);
    // Fig. 6 has no 256-thread bar: SP's 8-thread value is the only
    // reference for the shape of its gain.
    out["fig6_error"] =
        std::abs(cycle_ratio(run_[1], run_[0]) - fig6_reference("SP"));
    out["map_cost"] = geomean(costs);
  }

  void layers(PassTimer& timer, Ledger& ledger, Metrics& out) override {
    const Samples& spans = timer.spans();
    for (const MachineStats& s : run_) add_sim_counts(out, s);
    out["sim.evaluate_s"] = spans.sum("sim.evaluate");
    out["sim.ns_per_access"] =
        out["sim.evaluate_s"] * 1e9 /
        static_cast<double>(run_[0].accesses + run_[1].accesses);
    out["detect.sm_s"] = spans.sum("detect.SM");
    out["detect.hm_s"] = spans.sum("detect.HM");

    std::uint64_t gen_events = 0;
    double gen_s = 0.0;
    drain_streams(timer, *sp_, seed_ + 1000, gen_events, gen_s);
    out["npb.gen_ns_per_event"] = gen_s * 1e9 / static_cast<double>(gen_events);
    MachineStats identity;
    const double identity_s = timer.measure(
        [&] { identity = pipe_.evaluate(*sp_, identity_mapping(256), seed_); });
    ledger.check_stats(identity, "identity probe SP256");
    out["detect.sm_overhead_s"] = out["detect.sm_s"] - identity_s;
    out["detect.hm_overhead_s"] = out["detect.hm_s"] - identity_s;
    out["detect.sm_searches"] = static_cast<double>(det_[0].searches);
    out["detect.hm_sweeps"] = static_cast<double>(det_[1].searches);
    out["detect.overhead_cycle_share"] =
        static_cast<double>(det_[0].stats.detection_overhead_cycles +
                            det_[1].stats.detection_overhead_cycles) /
        static_cast<double>(det_[0].stats.execution_cycles +
                            det_[1].stats.execution_cycles);
    // The oracle is a probe here: the timed pass has no use for it.
    const DetectionResult oracle =
        pipe_.detect(*sp_, Pipeline::Mechanism::kOracle, seed_);
    ledger.check_stats(oracle.stats, "oracle probe SP256");
    out["detect.sm_cosine"] =
        CommMatrix::cosine_similarity(det_[0].matrix, oracle.matrix);
    out["detect.hm_cosine"] =
        CommMatrix::cosine_similarity(det_[1].matrix, oracle.matrix);

    std::vector<double> costs;
    for (int m = 0; m < 2; ++m) {
      if (const auto r = cost_ratio(det_[m].matrix, map_[m], pipe_.topology())) {
        costs.push_back(*r);
      }
    }
    out["mapping.map_ms.n256"] = mean_ms(timer, "mapping.map.n256");
    out["mapping.cost_ratio.n256"] = geomean(costs);
    for (const Synthetic& s : synthetic_) {
      out["mapping.map_ms." + s.who] = mean_ms(timer, "mapping.map." + s.who);
      out["mapping.cost_ratio." + s.who] =
          cost_ratio(s.matrix, s.mapping, *s.topology).value_or(0.0);
    }
  }

 private:
  static constexpr const char* kMapped[] = {"SP/SM", "SP/HM"};
  static constexpr const char* kPlaced[] = {"SP/OS", "SP/HM"};

  struct Synthetic {
    int n = 0;
    std::string who;
    std::unique_ptr<Topology> topology;
    CommMatrix matrix{1};
    Mapping mapping;
  };

  std::uint64_t seed_;
  Pipeline pipe_;
  WorkloadParams params_;
  std::vector<int> synthetic_sizes_;
  std::unique_ptr<Workload> sp_;
  Mapping os_;
  std::vector<Synthetic> synthetic_;
  DetectionResult det_[2];  ///< SM, HM
  Mapping map_[2];
  MachineStats run_[2];     ///< OS, HM
};

/// One MappingService with 8 tenants (every NPB app but EP, 8 threads
/// each), driven by a closed loop with no pacing: each tick offers one
/// chunk per thread, pumps once, then reads every tenant's decision.
class ServeFleet final : public BenchWorkload {
 public:
  ServeFleet(std::uint64_t seed, bool tiny) : seed_(seed) {
    params_.size_scale = tiny ? 0.1 : 1.0;
    params_.iter_scale = tiny ? 0.1 : 1.0;
  }

  void setup() override {
    tenants_.clear();
    std::uint64_t k = 0;
    for (const std::string& app : npb_workload_names()) {
      if (app == "EP") continue;
      Tenant t;
      t.app = app;
      t.workload = make_npb_workload(app, params_);
      t.trace_seed = seed_ + k;
      t.buffers = record_workload(*t.workload, t.trace_seed);
      for (std::uint64_t rep = 0; rep < kOsPlacements; ++rep) {
        t.os.push_back(random_mapping(8, 8, seed_ * 7919 + k * 131 + rep));
      }
      tenants_.push_back(std::move(t));
      ++k;
    }
    // Warm-up: stream the first tenant alone through a scratch service.
    svc::MappingService service(config_);
    const Tenant& first = tenants_.front();
    const svc::SessionId id = *service.open_session(first.app, 8);
    std::vector<std::size_t> cursor(first.buffers.size(), 0);
    for (std::size_t tick = 0;
         service.find(id)->status() == svc::SessionStatus::kActive; ++tick) {
      if (tick == kMaxTicks) {
        throw std::runtime_error("serve_fleet: warm-up never completed");
      }
      for (std::size_t t = 0; t < first.buffers.size(); ++t) {
        const std::size_t n =
            std::min(kChunk, first.buffers[t].size() - cursor[t]);
        if (n > 0 && service.ingest(id, static_cast<ThreadId>(t),
                                    first.buffers[t].data() + cursor[t], n)) {
          cursor[t] += n;
        }
      }
      service.pump();
      (void)service.decision(id);
    }
  }

  void pass(PassTimer& timer, Ledger& ledger, Digest& digest) override {
    svc::MappingService service(config_);
    for (Tenant& t : tenants_) {
      const Expected<svc::SessionId> id = timer.call(
          "svc", "open_session", t.app,
          [&] { return service.open_session(t.app, 8); });
      ledger.op(id.has_value(), "open_session " + t.app);
      if (!id) throw std::runtime_error("serve_fleet: admission refused");
      t.session = *id;
      t.cursor.assign(t.buffers.size(), 0);
    }
    events_ = 0;
    decision_reads_ = 0;
    queued_.clear();
    for (bool done = false; !done;) {
      timer.step("tick", [&] {
        for (Tenant& t : tenants_) {
          for (std::size_t th = 0; th < t.buffers.size(); ++th) {
            const std::size_t n =
                std::min(kChunk, t.buffers[th].size() - t.cursor[th]);
            if (n == 0) continue;
            const Expected<svc::IngestResult> fed =
                timer.call("svc", "ingest", t.app, [&] {
                  return service.ingest(t.session, static_cast<ThreadId>(th),
                                        t.buffers[th].data() + t.cursor[th],
                                        n);
                });
            if (fed) {
              t.cursor[th] += n;
            } else {
              ledger.op(fed.error().code == ErrorCode::kBackpressure,
                        "ingest " + t.app + ": " + fed.error().to_string());
            }
          }
        }
        events_ += timer.call("svc", "pump", "fleet",
                              [&] { return service.pump(); });
        for (Tenant& t : tenants_) {
          const Expected<MappingDecision> d = timer.call(
              "svc", "decision", t.app,
              [&] { return service.decision(t.session); });
          // No decision before the first sweep is the service's normal
          // answer, not a failure.
          if (!d && d.error().code != ErrorCode::kDegenerateMatrix) {
            ledger.op(false, "decision " + t.app + ": " + d.error().to_string());
          }
          ++decision_reads_;
        }
      });
      std::size_t queued = 0;
      done = true;
      for (const Tenant& t : tenants_) {
        const svc::Session* s = service.find(t.session);
        queued += s->queued_bytes();
        done = done && s->status() != svc::SessionStatus::kActive;
      }
      queued_.push_back(static_cast<double>(queued));
      if (queued_.size() == kMaxTicks) {
        throw std::runtime_error("serve_fleet: pass never completed");
      }
    }
    backpressure_ = service.backpressure_signals();
    rematches_ = 0;
    for (Tenant& t : tenants_) {
      const svc::Session* s = service.find(t.session);
      const Expected<MappingDecision> d = service.decision(t.session);
      ledger.op(s->status() == svc::SessionStatus::kComplete && d.has_value(),
                "tenant " + t.app + " ended " + svc::to_string(s->status()) +
                    (d ? "" : " without a decision"));
      t.decision = d ? d->mapping : Mapping{};
      t.matrix = s->detector().matrix();
      rematches_ += s->cache().rematches();
      ledger.check_mapping(t.decision, 8, 8, "decision " + t.app);
      digest.add(t.decision);
      digest.add(t.matrix);
      digest.add(d ? d->epoch : 0);
    }
  }

  std::uint64_t events_per_pass() const override { return events_; }

  std::vector<double> decision_latencies(const Samples& steps) const override {
    const std::vector<double> medians = steps.medians();
    std::vector<double> out;
    for (std::size_t i = 0; i < steps.keys().size(); ++i) {
      if (steps.keys()[i] == "tick") out.push_back(medians[i]);
    }
    return out;
  }

  void quality(Ledger& ledger, Metrics& out) override {
    // The service simulates nothing; its decisions are scored afterwards
    // on the simulated Harpertown against the OS placement, untimed.
    Pipeline pipe(config_.machine);
    std::vector<double> speedups, errors, costs;
    sim_.clear();
    for (const Tenant& t : tenants_) {
      std::vector<MachineStats> os_runs;
      for (const Mapping& placement : t.os) {
        os_runs.push_back(pipe.evaluate(*t.workload, placement, t.trace_seed));
        ledger.check_stats(os_runs.back(), "score OS " + t.app);
        sim_.push_back(os_runs.back());
      }
      const MachineStats mapped =
          pipe.evaluate(*t.workload, t.decision, t.trace_seed);
      ledger.check_stats(mapped, "score decision " + t.app);
      sim_.push_back(mapped);
      const double os = mean_cycles(os_runs);
      const auto cycles = static_cast<double>(mapped.execution_cycles);
      speedups.push_back(os / cycles);
      errors.push_back(std::abs(cycles / os - fig6_reference(t.app)));
      if (const auto r = cost_ratio(t.matrix, t.decision, pipe.topology())) {
        costs.push_back(*r);
      }
    }
    ledger.op(!costs.empty(), "serve_fleet: no mappable matrix");
    out["mapped_speedup"] = geomean(speedups);
    out["fig6_error"] = mean(errors);
    out["map_cost"] = geomean(costs);
  }

  void layers(PassTimer& timer, Ledger&, Metrics& out) override {
    const Samples& spans = timer.spans();
    std::uint64_t gen_events = 0;
    double gen_s = 0.0;
    for (const Tenant& t : tenants_) {
      drain_streams(timer, *t.workload, t.trace_seed, gen_events, gen_s);
    }
    out["npb.gen_ns_per_event"] = gen_s * 1e9 / static_cast<double>(gen_events);
    // Simulated counts of the untimed scoring runs behind mapped_speedup.
    for (const MachineStats& s : sim_) add_sim_counts(out, s);
    out["mapping.cost_ratio.n8"] = out.at("map_cost");  // all maps are n8
    out["svc.ingest_s"] = spans.sum("svc.ingest");
    out["svc.pump_s"] = spans.sum("svc.pump");
    out["svc.decision_s"] = spans.sum("svc.decision");
    out["svc.decode_ns_per_event"] =
        out["svc.pump_s"] * 1e9 / static_cast<double>(events_);
    out["svc.queued_bytes_p99"] = percentile(queued_, 99.0);
    out["svc.backpressure"] = static_cast<double>(backpressure_);
    out["svc.rematches"] = static_cast<double>(rematches_);
    out["svc.rematch_share"] =
        static_cast<double>(rematches_) / static_cast<double>(decision_reads_);
  }

 private:
  static constexpr std::size_t kChunk = 512;  // tlbmap serve's default
  static constexpr std::size_t kMaxTicks = 1'000'000;

  struct Tenant {
    std::string app;
    std::unique_ptr<Workload> workload;
    std::uint64_t trace_seed = 0;
    std::vector<std::vector<std::uint8_t>> buffers;
    std::vector<Mapping> os;
    svc::SessionId session = 0;
    std::vector<std::size_t> cursor;
    Mapping decision;
    CommMatrix matrix{1};
  };

  std::uint64_t seed_;
  svc::ServiceConfig config_{};
  WorkloadParams params_;
  std::vector<Tenant> tenants_;
  std::uint64_t events_ = 0;
  std::uint64_t decision_reads_ = 0;
  std::uint64_t backpressure_ = 0;
  std::uint64_t rematches_ = 0;
  std::vector<double> queued_;
  std::vector<MachineStats> sim_;
};

std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                             std::uint64_t seed, bool tiny) {
  if (name == "paper_8t") return std::make_unique<Paper8t>(seed, tiny);
  if (name == "manycore_256") return std::make_unique<Manycore256>(seed, tiny);
  if (name == "serve_fleet") return std::make_unique<ServeFleet>(seed, tiny);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: tlbmap_perfbench --workload "
               "paper_8t|manycore_256|serve_fleet --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--inject stat|mapping]\n",
               message);
  return 2;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, const Ledger& ledger,
                        const Metrics& metrics,
                        const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_str(defs[i].name) + ": {\"value\": " +
           format_number(metrics.at(defs[i].name)) +
           ", \"unit\": " + obs::json_str(defs[i].unit) + "}";
  }
  out += "}}";
  return out;
}

int run(const Options& opt) {
  Ledger ledger(opt.inject);
  Metrics metrics;

  PassTimer timer;
  // Set-up is repeated and its median reported: one set-up is short enough
  // that a single slow stretch of the host would dominate it.
  constexpr int kSetupReps = 3;
  std::vector<double> setup_times;
  std::unique_ptr<BenchWorkload> workload;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_times.push_back(timer.measure([&] {
      workload = make_workload(opt.workload, opt.seed, opt.tiny);
      workload->setup();
    }));
  }

  // Interleaved passes until the time budget would be exceeded; in the
  // traced run, untraced and traced passes alternate.
  const int min_passes = opt.trace ? 4 : 3;
  std::optional<std::uint64_t> first_digest;
  int passes = 0;
  const auto start = Clock::now();
  for (;;) {
    const bool traced = opt.trace && passes % 2 == 1;
    Digest digest;
    timer.begin_pass(traced);
    workload->pass(timer, ledger, digest);
    timer.end_pass();
    ++passes;
    if (first_digest) {
      ledger.op(digest.value() == *first_digest,
                "pass " + std::to_string(passes) + " outputs differ");
    } else {
      first_digest = digest.value();
      std::printf("digest %016llx\n",
                  static_cast<unsigned long long>(digest.value()));
    }
    const double spent = elapsed_s(start);
    const double per_pass = spent / passes;
    if (passes >= min_passes && spent + per_pass > opt.seconds) break;
  }

  workload->quality(ledger, metrics);
  const Samples& steps = timer.steps(false);
  const double wall = steps.total();
  std::vector<double> latencies = workload->decision_latencies(steps);
  metrics["setup_s"] = percentile(setup_times, 50.0);
  metrics["wall_s"] = wall;
  metrics["events_per_s"] =
      static_cast<double>(workload->events_per_pass()) / wall;
  metrics["decision_p50_ms"] = percentile(latencies, 50.0) * 1e3;
  metrics["decision_p99_ms"] = percentile(latencies, 99.0) * 1e3;

  std::vector<MetricDef> defs;
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) metrics.emplace(d.name, 0.0);
    workload->layers(timer, ledger, metrics);
    metrics["obs.decision_samples"] = static_cast<double>(latencies.size());
    metrics["obs.passes"] = passes;
    metrics["obs.trace_overhead"] =
        timer.steps(true).total() / timer.steps(false).total() - 1.0;
    // The spans go next to the driver binary, inside the build tree.
    const std::filesystem::path trace_path =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        (opt.workload + ".trace.json");
    std::ofstream trace_out(trace_path);
    timer.tracer().export_chrome_trace(trace_out);
    std::fprintf(stderr, "[perfbench] spans written to %s (%llu dropped)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(timer.tracer().dropped()));
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  metrics["peak_rss_mb"] = peak_rss_mb();
  metrics["ok_rate"] = 1.0;
  for (const MetricDef& d : defs) {
    ledger.op(std::isfinite(metrics.at(d.name)),
              std::string(d.name) + " is not finite");
    if (!std::isfinite(metrics.at(d.name))) metrics[d.name] = 0.0;
  }
  metrics["ok_rate"] = 1.0 - static_cast<double>(ledger.failed()) /
                                 static_cast<double>(ledger.attempted());

  std::fprintf(stderr, "[perfbench] %s seed %llu: %d passes (%zu decision "
               "samples), %llu operations, %llu failed\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               passes, latencies.size(),
               static_cast<unsigned long long>(ledger.attempted()),
               static_cast<unsigned long long>(ledger.failed()));
  for (const std::string& e : ledger.errors()) {
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", e.c_str());
  }
  for (const MetricDef& d : defs) {
    std::fprintf(stderr, "[perfbench] %-28s %.6g %s\n", d.name,
                 metrics.at(d.name), d.unit);
  }
  const bool correct = ledger.failed() == 0;
  std::printf("%s\n", result_json(correct, ledger, metrics, defs).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") {
          return usage("--scale takes full or tiny");
        }
        opt.tiny = value == "tiny";
      } else if (flag == "--inject") {
        if (value != "stat" && value != "mapping") {
          return usage("--inject takes stat or mapping");
        }
        opt.inject = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !make_workload(opt.workload, opt.seed, opt.tiny)) {
    return usage("--workload must be paper_8t, manycore_256 or serve_fleet");
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] aborted: %s\n", e.what());
    return 1;
  }
}
