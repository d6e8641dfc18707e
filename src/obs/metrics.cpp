#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace tlbmap::obs {

void Histogram::observe(double v) {
  if (v < 0.0) v = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  // bucket 0 holds [0,1); bucket i>0 holds [2^(i-1), 2^i).
  std::size_t bucket = 0;
  if (v >= 1.0) {
    bucket = static_cast<std::size_t>(std::ilogb(v)) + 1;
    bucket = std::min(bucket, kBuckets - 1);
  }
  ++buckets_[bucket];
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Rank of the q-th sample in [0, count]; walk the cumulative counts to
  // the bucket holding it, then interpolate linearly inside that bucket.
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(b));
      const double frac =
          (target - before) / static_cast<double>(buckets_[b]);
      // The observed extrema are tighter bounds than the bucket edges.
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
  }
  return max_;
}

std::string MetricsRegistry::key_of(const std::string& name,
                                    const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::make_unique<Counter>()).first;
    names_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
    names_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(key, std::make_unique<Histogram>()).first;
    names_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

Gauge& MetricsRegistry::wallclock_gauge(const std::string& name,
                                        const Labels& labels) {
  Gauge& g = gauge(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  wallclock_keys_.insert(key_of(name, labels));
  return g;
}

Histogram& MetricsRegistry::wallclock_histogram(const std::string& name,
                                                const Labels& labels) {
  Histogram& h = histogram(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  wallclock_keys_.insert(key_of(name, labels));
  return h;
}

void MetricsRegistry::snapshot_matrix(std::string name, std::uint64_t epoch,
                                      UpperRows matrix) {
  std::lock_guard<std::mutex> lock(mu_);
  matrices_.push_back({std::move(name), epoch, std::move(matrix)});
}

std::vector<MatrixSnapshot> MetricsRegistry::matrix_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return matrices_;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const Labels& labels) const {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->value();
}

std::string MetricsRegistry::series_key(
    const std::pair<std::string, Labels>& nl) {
  if (nl.second.empty()) return nl.first;
  Labels sorted = nl.second;
  std::sort(sorted.begin(), sorted.end());
  std::string key = nl.first + "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i != 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

void MetricsRegistry::sample_series(std::uint64_t sim_events,
                                    const std::string& reason) {
  SeriesSample sample;
  sample.sim_events = sim_events;
  sample.reason = reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, c] : counters_) {
      if (wallclock_keys_.count(key) != 0) continue;
      sample.counters.emplace_back(series_key(names_.at(key)), c->value());
    }
    for (const auto& [key, g] : gauges_) {
      if (wallclock_keys_.count(key) != 0) continue;
      sample.gauges.emplace_back(series_key(names_.at(key)), g->value());
    }
    for (const auto& [key, h] : histograms_) {
      if (wallclock_keys_.count(key) != 0) continue;
      SeriesHistogram sh;
      sh.count = h->count();
      sh.sum = h->sum();
      sh.min = h->min();
      sh.max = h->max();
      sh.mean = h->mean();
      sh.p50 = h->quantile(0.50);
      sh.p95 = h->quantile(0.95);
      sh.p99 = h->quantile(0.99);
      sample.histograms.emplace_back(series_key(names_.at(key)), sh);
    }
  }
  series_.append(std::move(sample));
}

namespace {

void write_header(std::ostream& out, const char* type,
                  const std::pair<std::string, Labels>& name_labels) {
  out << "{\"type\":\"" << type << "\",\"name\":\""
      << json_escape(name_labels.first) << "\",\"labels\":{";
  for (std::size_t i = 0; i < name_labels.second.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(name_labels.second[i].first) << "\":\""
        << json_escape(name_labels.second[i].second) << '"';
  }
  out << '}';
}

/// The full symmetric matrix as comma-separated "[...]" rows. Row r's cells
/// left of the diagonal are the (c, r) cells of the rows above it; each of
/// those rows is consumed in ascending r, so one cursor per row finds them
/// without a transpose.
void write_dense_rows(std::ostream& out, const UpperRows& m) {
  std::vector<std::size_t> below(m.begin.begin(), m.begin.end() - 1);
  for (int r = 0; r < m.n; ++r) {
    if (r != 0) out << ',';
    out << '[';
    for (int c = 0; c < r; ++c) {
      std::size_t& e = below[static_cast<std::size_t>(c)];
      const bool hit = e < m.row_end(c) && m.col[e] == r;
      out << (hit ? m.count[e++] : 0) << ',';
    }
    out << 0;  // the diagonal
    std::size_t e = m.row_begin(r);
    for (int c = r + 1; c < m.n; ++c) {
      const bool hit = e < m.row_end(r) && m.col[e] == c;
      out << ',' << (hit ? m.count[e++] : 0);
    }
    out << ']';
  }
}

}  // namespace

void MetricsRegistry::export_jsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, c] : counters_) {
    write_header(out, "counter", names_.at(key));
    out << ",\"value\":" << c->value() << "}\n";
  }
  for (const auto& [key, g] : gauges_) {
    write_header(out, "gauge", names_.at(key));
    out << ",\"value\":" << json_num(g->value()) << "}\n";
  }
  for (const auto& [key, h] : histograms_) {
    write_header(out, "histogram", names_.at(key));
    out << ",\"count\":" << h->count() << ",\"sum\":" << json_num(h->sum())
        << ",\"min\":" << json_num(h->min())
        << ",\"max\":" << json_num(h->max())
        << ",\"mean\":" << json_num(h->mean())
        << ",\"p50\":" << json_num(h->quantile(0.50))
        << ",\"p95\":" << json_num(h->quantile(0.95))
        << ",\"p99\":" << json_num(h->quantile(0.99)) << "}\n";
  }
  for (const MatrixSnapshot& m : matrices_) {
    out << "{\"type\":\"matrix\",\"name\":\"" << json_escape(m.name)
        << "\",\"epoch\":" << m.epoch << ",\"rows\":[";
    write_dense_rows(out, m.matrix);
    out << "]}\n";
  }
  series_.export_jsonl(out);
}

}  // namespace tlbmap::obs
