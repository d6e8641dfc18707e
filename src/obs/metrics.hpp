// Registry of named, labeled metrics: counters (monotonic uint64), gauges
// (last-write-wins double), histograms (count/sum/min/max plus log2
// buckets), and communication-matrix snapshots for heatmap dumps.
//
// Lookup (`counter()` / `gauge()` / `histogram()`) takes a registry-wide
// mutex, but the returned references stay valid for the registry's lifetime,
// so hot paths resolve once and update lock-free afterwards:
//
//   obs::Counter& searches = registry.counter("detector.searches",
//                                             {{"mechanism", "SM"}});
//   ...per event...
//   searches.add();
//
// The whole registry exports as JSONL, one metric per line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "detect/upper_rows.hpp"
#include "obs/timeseries.hpp"

namespace tlbmap::obs {

/// Label set attached to a metric, e.g. {{"app", "SP"}, {"phase", "detect"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative samples with power-of-two buckets:
/// bucket i counts samples in [2^(i-1), 2^i) (bucket 0: [0, 1)).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double v);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Approximate quantile (q in [0,1]) from the log2 buckets: the bucket
  /// holding the q-th sample is found by cumulative count, and the value is
  /// linearly interpolated within that bucket's [lo, hi) range, clamped to
  /// the observed [min, max]. Exact for 0 and 1; 0 when empty.
  double quantile(double q) const;

 private:
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// One captured communication matrix (or any symmetric count matrix with a
/// zero diagonal), tagged with the epoch that produced it (detector sweep
/// index, remap decision, end-of-run, ...). Held as compressed upper rows;
/// the JSONL export expands it to dense rows.
struct MatrixSnapshot {
  std::string name;
  std::uint64_t epoch = 0;
  UpperRows matrix;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Wall-clock variants: identical to gauge()/histogram() but the metric
  /// is tagged volatile and excluded from time-series samples, which must
  /// stay deterministic for a fixed seed (self-measurement values — wall
  /// time, events/sec, RSS — differ across runs; they belong in the run
  /// manifest, not the series stream). The full JSONL export still
  /// includes them.
  Gauge& wallclock_gauge(const std::string& name, const Labels& labels = {});
  Histogram& wallclock_histogram(const std::string& name,
                                 const Labels& labels = {});

  void snapshot_matrix(std::string name, std::uint64_t epoch,
                       UpperRows matrix);
  std::vector<MatrixSnapshot> matrix_snapshots() const;

  /// Reads a previously registered counter's value; 0 if absent (lets tests
  /// and reports probe without creating the metric).
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;

  /// Captures every registered counter/gauge/histogram (minus wall-clock-
  /// tagged ones) into the time-series sink as one sample tagged with the
  /// triggering simulated-event count and a reason string. Thread-safe;
  /// Machine::try_run calls this every RunConfig::metrics_interval_events
  /// events, the pipeline and suite at phase boundaries.
  void sample_series(std::uint64_t sim_events, const std::string& reason);

  /// The epoch-bucketed sample stream (empty until sample_series runs).
  const TimeSeries& series() const { return series_; }

  /// One JSON object per line:
  ///   {"type":"counter","name":...,"labels":{...},"value":N}
  ///   {"type":"gauge",...,"value":X}
  ///   {"type":"histogram",...,"count":N,"sum":X,"min":X,"max":X,"mean":X,
  ///    "p50":X,"p95":X,"p99":X}
  ///   {"type":"matrix","name":...,"epoch":N,"rows":[[...],...]}
  ///   {"type":"series","sample":N,"sim_events":N,"reason":...,
  ///    "counters":{...},"gauges":{...},"histograms":{...}}
  void export_jsonl(std::ostream& out) const;

 private:
  /// name + serialized labels; labels are sorted so order never matters.
  static std::string key_of(const std::string& name, const Labels& labels);

  /// Stable series key: "name" or "name{k=v,k=v}" with labels sorted.
  static std::string series_key(const std::pair<std::string, Labels>& nl);

  mutable std::mutex mu_;
  // node-based maps: references handed out stay stable under later inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::pair<std::string, Labels>> names_;
  std::set<std::string> wallclock_keys_;  ///< excluded from series samples
  std::vector<MatrixSnapshot> matrices_;
  TimeSeries series_;
};

}  // namespace tlbmap::obs
