#include "obs/timeseries.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace tlbmap::obs {

void TimeSeries::append(SeriesSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  sample.index = samples_.size();
  samples_.push_back(std::move(sample));
}

std::size_t TimeSeries::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

std::vector<SeriesSample> TimeSeries::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

void TimeSeries::export_jsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SeriesSample& s : samples_) {
    out << "{\"type\":\"series\",\"sample\":" << s.index
        << ",\"sim_events\":" << s.sim_events
        << ",\"reason\":" << json_str(s.reason) << ",\"counters\":{";
    for (std::size_t i = 0; i < s.counters.size(); ++i) {
      if (i != 0) out << ',';
      out << json_str(s.counters[i].first) << ':' << s.counters[i].second;
    }
    out << "},\"gauges\":{";
    for (std::size_t i = 0; i < s.gauges.size(); ++i) {
      if (i != 0) out << ',';
      out << json_str(s.gauges[i].first) << ':' << json_num(s.gauges[i].second);
    }
    out << "},\"histograms\":{";
    for (std::size_t i = 0; i < s.histograms.size(); ++i) {
      if (i != 0) out << ',';
      const SeriesHistogram& h = s.histograms[i].second;
      out << json_str(s.histograms[i].first) << ":{\"count\":" << h.count
          << ",\"sum\":" << json_num(h.sum) << ",\"min\":" << json_num(h.min)
          << ",\"max\":" << json_num(h.max)
          << ",\"mean\":" << json_num(h.mean)
          << ",\"p50\":" << json_num(h.p50)
          << ",\"p95\":" << json_num(h.p95)
          << ",\"p99\":" << json_num(h.p99) << '}';
    }
    out << "}}\n";
  }
}

}  // namespace tlbmap::obs
