// Epoch-bucketed time-series sink for the metrics registry.
//
// The registry's JSONL export captures end-of-run totals; the paper's core
// claims (detection accuracy, invalidations, overhead — Figs. 6-9) are
// longitudinal, so the interesting signal is how those totals *evolve*.
// A TimeSeries holds an append-only sequence of samples, each a full
// snapshot of the registry's counters, gauges and histogram summaries,
// tagged with the simulated-event count that triggered it and a reason
// ("interval" for the every-N-events trigger inside Machine::try_run,
// "phase:<name>" at pipeline/suite phase boundaries).
//
// Determinism contract: samples carry no wall-clock fields, and metrics
// registered through the registry's wallclock_* helpers are excluded, so a
// single-pipeline run with a fixed seed and fixed interval exports a
// byte-identical series (tested). Suite runs with parallel workers
// interleave samples from concurrent tasks; the sample index stays
// monotonic but the ordering is scheduling-dependent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tlbmap::obs {

/// Percentile-bearing histogram summary captured into a sample.
struct SeriesHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One snapshot of the registry. Metric keys are "name" or
/// "name{k=v,k=v}" with labels sorted, so a key is stable across runs.
struct SeriesSample {
  std::uint64_t index = 0;       ///< monotonic sample number (assigned)
  std::uint64_t sim_events = 0;  ///< simulated events at the trigger
  std::string reason;            ///< "interval" | "phase:<name>" | ...
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, SeriesHistogram>> histograms;
};

class TimeSeries {
 public:
  /// Appends a sample, assigning the next monotonic index. Thread-safe.
  void append(SeriesSample sample);

  std::size_t size() const;
  std::vector<SeriesSample> samples() const;

  /// One {"type":"series",...} JSON object per line — the stream the
  /// registry's export_jsonl interleaves after the scalar metrics.
  void export_jsonl(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::vector<SeriesSample> samples_;
};

}  // namespace tlbmap::obs
