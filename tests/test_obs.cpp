// Tests for the observability layer: tracer ring buffer and exports,
// metrics registry, obs levels.
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/comm_matrix.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/selfprof.hpp"

namespace tlbmap::obs {
namespace {

/// Deterministic clock: every now_us() call returns the next integer.
std::function<std::uint64_t()> counting_clock() {
  auto t = std::make_shared<std::uint64_t>(0);
  return [t] { return (*t)++; };
}

TEST(Tracer, SpanRecordsDuration) {
  Tracer tracer(16);
  tracer.set_clock(counting_clock());
  tracer.record_span("work", "phase", 10, 5);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSpan);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].ts_us, 10u);
  EXPECT_EQ(events[0].dur_us, 5u);
}

TEST(Tracer, RaiiSpanStampsStartAndEnd) {
  Tracer tracer(16);
  tracer.set_clock(counting_clock());
  {
    TraceSpan span(&tracer, "scoped", "phase");
    // clock ticks: 0 at construction; destructor reads 1.
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_us, 0u);
  EXPECT_EQ(events[0].dur_us, 1u);
}

TEST(Tracer, NullTracerSpanIsNoop) {
  TraceSpan span(nullptr, "nothing", "phase");
  span.set_args("\"k\":1");
  EXPECT_EQ(span.elapsed_us(), 0u);
}

TEST(Tracer, RingWraparoundKeepsNewestInOrder) {
  Tracer tracer(4);
  tracer.set_clock(counting_clock());
  for (int i = 0; i < 7; ++i) {
    tracer.record_instant("e" + std::to_string(i), "test");
  }
  EXPECT_EQ(tracer.recorded(), 7u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 3u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest three (e0-e2) were overwritten; order is preserved.
  EXPECT_EQ(events[0].name, "e3");
  EXPECT_EQ(events[1].name, "e4");
  EXPECT_EQ(events[2].name, "e5");
  EXPECT_EQ(events[3].name, "e6");
}

TEST(Tracer, ClearResets) {
  Tracer tracer(4);
  tracer.record_instant("x", "test");
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, ChromeTraceGoldenFile) {
  Tracer tracer(8);
  tracer.set_clock(counting_clock());
  tracer.record_span("pipeline.detect", "phase", 100, 50,
                     "\"app\":\"SP\",\"searches\":3");
  tracer.record_instant("SM.search", "detector");  // reads clock tick 0
  std::ostringstream out;
  tracer.export_chrome_trace(out);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"pipeline.detect\",\"cat\":\"phase\",\"ph\":\"X\","
      "\"ts\":100,\"dur\":50,\"pid\":1,\"tid\":0,"
      "\"args\":{\"app\":\"SP\",\"searches\":3}},\n"
      "{\"name\":\"SM.search\",\"cat\":\"detector\",\"ph\":\"i\","
      "\"ts\":0,\"s\":\"t\",\"pid\":1,\"tid\":0}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Tracer, JsonlGoldenFile) {
  Tracer tracer(8);
  tracer.set_clock(counting_clock());
  tracer.record_span("map", "phase", 7, 2);
  std::ostringstream out;
  tracer.export_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"name\":\"map\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":7,"
            "\"dur\":2,\"pid\":1,\"tid\":0}\n");
}

TEST(Tracer, JsonEscaping) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  Tracer tracer(4);
  tracer.record_instant("quote\"name", "cat\\egory");
  std::ostringstream out;
  tracer.export_chrome_trace(out);
  EXPECT_NE(out.str().find("quote\\\"name"), std::string::npos);
  EXPECT_NE(out.str().find("cat\\\\egory"), std::string::npos);
}

TEST(Tracer, ConcurrentRecordingSmoke) {
  Tracer tracer(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, &go, t] {
      while (!go.load()) {}
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(&tracer, "t" + std::to_string(t), "test");
      }
    });
  }
  go.store(true);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(tracer.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.size(), 256u);
  // Every surviving event is intact (no torn strings / partial writes).
  for (const TraceEvent& ev : tracer.snapshot()) {
    EXPECT_EQ(ev.category, "test");
    ASSERT_EQ(ev.name.size(), 2u);
    EXPECT_EQ(ev.name[0], 't');
  }
}

TEST(Metrics, CounterAccumulatesAndReferencesAreStable) {
  MetricsRegistry registry;
  Counter& c = registry.counter("requests", {{"app", "SP"}});
  c.add();
  c.add(4);
  // Force a rehash-sized number of other metrics; `c` must stay valid.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler_" + std::to_string(i)).add();
  }
  c.add();
  EXPECT_EQ(registry.counter_value("requests", {{"app", "SP"}}), 6u);
  EXPECT_EQ(registry.counter_value("requests"), 0u);  // different label set
}

TEST(Metrics, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  registry.counter("m", {{"a", "1"}, {"b", "2"}}).add(5);
  EXPECT_EQ(registry.counter_value("m", {{"b", "2"}, {"a", "1"}}), 5u);
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("speed");
  g.set(1.5);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramStats) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[0], 1u);  // [0,1): 0.5
  EXPECT_EQ(buckets[2], 1u);  // [2,4): 3.0
  EXPECT_EQ(buckets[4], 1u);  // [8,16): 10.0
}

TEST(Metrics, MatrixSnapshots) {
  MetricsRegistry registry;
  CommMatrix comm(2);
  comm.add(0, 1, 2);
  registry.snapshot_matrix("comm", 3, comm.upper_rows());
  const auto snaps = registry.matrix_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "comm");
  EXPECT_EQ(snaps[0].epoch, 3u);
  EXPECT_EQ(snaps[0].matrix.n, 2);
  ASSERT_EQ(snaps[0].matrix.nonzeros(), 1u);
  EXPECT_EQ(snaps[0].matrix.col[0], 1);
  EXPECT_EQ(snaps[0].matrix.count[0], 2u);
}

TEST(Metrics, JsonlExportGolden) {
  MetricsRegistry registry;
  registry.counter("hits", {{"phase", "detect"}}).add(7);
  registry.gauge("speed").set(2.0);
  CommMatrix comm(2);
  comm.add(0, 1);
  registry.snapshot_matrix("comm", 1, comm.upper_rows());
  std::ostringstream out;
  registry.export_jsonl(out);
  const std::string expected =
      "{\"type\":\"counter\",\"name\":\"hits\",\"labels\":"
      "{\"phase\":\"detect\"},\"value\":7}\n"
      "{\"type\":\"gauge\",\"name\":\"speed\",\"labels\":{},\"value\":2}\n"
      "{\"type\":\"matrix\",\"name\":\"comm\",\"epoch\":1,"
      "\"rows\":[[0,1],[1,0]]}\n";
  EXPECT_EQ(out.str(), expected);
}

// The export expands the sorted snapshot to dense symmetric rows, byte for
// byte what a dense n x n dump printed, across tile edges and empty rows.
TEST(Metrics, JsonlMatrixRowsMatchDenseCells) {
  const int n = 11;
  CommMatrix comm(n);
  comm.add(0, 10, 7);
  comm.add(9, 2, 3);
  comm.add(3, 4, 1);
  comm.add(7, 8, 12345678901234ull);
  comm.add(8, 0, 2);
  MetricsRegistry registry;
  registry.snapshot_matrix("m", 5, comm.upper_rows());
  std::ostringstream out;
  registry.export_jsonl(out);
  std::string expected = "{\"type\":\"matrix\",\"name\":\"m\",\"epoch\":5,"
                         "\"rows\":[";
  for (int r = 0; r < n; ++r) {
    expected += r == 0 ? "[" : ",[";
    for (int c = 0; c < n; ++c) {
      if (c != 0) expected += ',';
      expected += std::to_string(comm.at(r, c));
    }
    expected += ']';
  }
  expected += "]}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Metrics, ConcurrentCountersSmoke) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry] {
      Counter& c = registry.counter("shared");
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(registry.counter_value("shared"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Json, EscapeHelpers) {
  EXPECT_EQ(json_str("plain"), "\"plain\"");
  EXPECT_EQ(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json_str(std::string("x\x1fy")), "\"x\\u001fy\"");
  EXPECT_EQ(json_num(2.0), "2");
  EXPECT_EQ(json_num(2.5), "2.5");
  // Non-finite values must never leak into JSON output.
  EXPECT_EQ(json_num(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "0");
}

TEST(Metrics, HistogramQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(5.0);
  // One sample: every quantile collapses to it (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  for (int i = 1; i <= 99; ++i) h.observe(static_cast<double>(i));
  // Monotonic, inside the observed range, exact at the extremes.
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
  // The log2 approximation should land p50 in the right ballpark: the
  // 50th of 100 samples is 49, inside bucket [32,64).
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
}

TEST(Metrics, HistogramExportIncludesQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  h.observe(4.0);
  std::ostringstream out;
  registry.export_jsonl(out);
  EXPECT_NE(out.str().find("\"p50\":4"), std::string::npos);
  EXPECT_NE(out.str().find("\"p95\":4"), std::string::npos);
  EXPECT_NE(out.str().find("\"p99\":4"), std::string::npos);
}

TEST(Metrics, SeriesSampleCapturesRegistryState) {
  MetricsRegistry registry;
  registry.counter("events", {{"phase", "detect"}}).add(3);
  registry.gauge("depth").set(1.5);
  registry.histogram("lat").observe(8.0);
  registry.sample_series(100, "interval");
  registry.counter("events", {{"phase", "detect"}}).add(2);
  registry.sample_series(200, "phase:detect");
  const auto samples = registry.series().samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].index, 0u);
  EXPECT_EQ(samples[1].index, 1u);  // monotonic sample index
  EXPECT_EQ(samples[0].sim_events, 100u);
  EXPECT_EQ(samples[1].sim_events, 200u);
  EXPECT_EQ(samples[0].reason, "interval");
  EXPECT_EQ(samples[1].reason, "phase:detect");
  ASSERT_EQ(samples[0].counters.size(), 1u);
  EXPECT_EQ(samples[0].counters[0].first, "events{phase=detect}");
  EXPECT_EQ(samples[0].counters[0].second, 3u);
  EXPECT_EQ(samples[1].counters[0].second, 5u);
  ASSERT_EQ(samples[0].histograms.size(), 1u);
  EXPECT_EQ(samples[0].histograms[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(samples[0].histograms[0].second.p50, 8.0);
}

TEST(Metrics, WallclockMetricsExcludedFromSeries) {
  MetricsRegistry registry;
  registry.counter("sim.events").add(10);
  registry.wallclock_gauge("machine.sim_events_per_sec").set(123456.0);
  registry.wallclock_histogram("pipeline.phase_wall_us").observe(42.0);
  registry.sample_series(10, "interval");
  const auto samples = registry.series().samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].counters.size(), 1u);
  EXPECT_TRUE(samples[0].gauges.empty());
  EXPECT_TRUE(samples[0].histograms.empty());
  // ...but the full JSONL export still carries them.
  std::ostringstream out;
  registry.export_jsonl(out);
  EXPECT_NE(out.str().find("machine.sim_events_per_sec"), std::string::npos);
  EXPECT_NE(out.str().find("pipeline.phase_wall_us"), std::string::npos);
}

TEST(Metrics, SeriesExportGolden) {
  MetricsRegistry registry;
  registry.counter("hits").add(2);
  registry.gauge("depth").set(1.5);
  registry.sample_series(50, "interval");
  std::ostringstream out;
  registry.series().export_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"type\":\"series\",\"sample\":0,\"sim_events\":50,"
            "\"reason\":\"interval\",\"counters\":{\"hits\":2},"
            "\"gauges\":{\"depth\":1.5},\"histograms\":{}}\n");
}

TEST(Metrics, SeriesExportIsDeterministic) {
  // Identical update sequences must produce byte-identical series exports —
  // the contract that makes the stream diffable across runs of a fixed
  // seed. Wall-clock metrics are exercised too: they vary per run but are
  // excluded from samples, so they must not break the equality.
  auto build = [](double wallclock_noise) {
    auto registry = std::make_unique<MetricsRegistry>();
    registry->counter("events", {{"app", "SP"}}).add(7);
    registry->histogram("lat").observe(3.0);
    registry->wallclock_gauge("events_per_sec").set(wallclock_noise);
    registry->sample_series(1000, "interval");
    registry->counter("events", {{"app", "SP"}}).add(1);
    registry->sample_series(2000, "phase:detect");
    std::ostringstream out;
    registry->series().export_jsonl(out);
    return out.str();
  };
  const std::string a = build(1.0);
  const std::string b = build(987654.321);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Metrics, ConcurrentSeriesSamplingSmoke) {
  // sample_series racing metric updates and other samplers must stay safe
  // (runs under TSan in CI) and keep indices dense and monotonic.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry, t] {
      Counter& c = registry.counter("shared");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        if (i % 10 == t) {
          registry.sample_series(static_cast<std::uint64_t>(i), "interval");
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const auto samples = registry.series().samples();
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, i);
  }
}

TEST(Series, UnboundedByDefault) {
  TimeSeries series;
  for (int i = 0; i < 500; ++i) {
    SeriesSample s;
    s.sim_events = static_cast<std::uint64_t>(i);
    series.append(std::move(s));
  }
  EXPECT_EQ(series.size(), 500u);
  EXPECT_EQ(series.samples().back().index, 499u);
}

TEST(Tracer, ConcurrentWraparoundKeepsRingIntact) {
  // Wraparound under contention: a ring much smaller than the event volume
  // forces continuous overwrites from four threads at once (tsan preset
  // exercises the locking; this assertion set checks the accounting).
  Tracer tracer(32);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, &go, t] {
      while (!go.load()) {}
      for (int i = 0; i < kPerThread; ++i) {
        tracer.record_instant("w" + std::to_string(t), "test");
      }
    });
  }
  go.store(true);
  for (std::thread& t : pool) t.join();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(tracer.recorded(), kTotal);
  EXPECT_EQ(tracer.size(), 32u);
  EXPECT_EQ(tracer.dropped(), kTotal - 32u);
  for (const TraceEvent& ev : tracer.snapshot()) {
    ASSERT_EQ(ev.name.size(), 2u);
    EXPECT_EQ(ev.name[0], 'w');
    EXPECT_EQ(ev.category, "test");
  }
}

TEST(SelfProf, CollapsedStacksRebuildNesting) {
  Tracer tracer(16);
  tracer.set_clock(counting_clock());
  // outer [0,100) with child [10,30): outer self = 80, child self = 20.
  tracer.record_span("outer", "phase", 0, 100);
  tracer.record_span("inner", "phase", 10, 20);
  // A sibling span after outer ends.
  tracer.record_span("tail", "phase", 150, 5);
  const std::string collapsed = collapsed_stacks(tracer);
  EXPECT_EQ(collapsed,
            "outer 80\n"
            "outer;inner 20\n"
            "tail 5\n");
}

TEST(SelfProf, SpanSelfTimesAttributeWallToInnermostSpan) {
  Tracer tracer(16);
  tracer.set_clock(counting_clock());
  // outer [0,100) encloses inner [10,30): a naive per-span duration sum
  // would report 125 us across 105 us of wall time. Self attribution gives
  // outer 80, inner 20, tail 5 — summing to the real covered wall time.
  tracer.record_span("outer", "phase", 0, 100);
  tracer.record_span("inner", "phase", 10, 20);
  tracer.record_span("tail", "phase", 150, 5);
  std::map<std::string, std::uint64_t> by_name;
  std::uint64_t total = 0;
  for (const SpanSelf& span : span_self_times(tracer)) {
    by_name[span.name] += span.self_us;
    total += span.self_us;
  }
  EXPECT_EQ(by_name["outer"], 80u);
  EXPECT_EQ(by_name["inner"], 20u);
  EXPECT_EQ(by_name["tail"], 5u);
  EXPECT_EQ(total, 105u);
}

TEST(SelfProf, SpanSelfTimesDoNotDoubleCountSameNameNesting) {
  Tracer tracer(16);
  tracer.set_clock(counting_clock());
  // A phase nested inside itself (recursive helper, re-entered stage):
  // summing by name must still yield the enclosing wall time once.
  tracer.record_span("phase", "work", 0, 100);
  tracer.record_span("phase", "work", 10, 30);
  std::uint64_t total = 0;
  std::size_t count = 0;
  for (const SpanSelf& span : span_self_times(tracer)) {
    EXPECT_EQ(span.name, "phase");
    total += span.self_us;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(total, 100u);
}

TEST(SelfProf, ProfilerAndManifestRender) {
  SelfProfiler profiler;
  EXPECT_GE(profiler.wall_seconds(), 0.0);
  RunManifest manifest;
  manifest.command = "evaluate";
  manifest.git_describe = build_git_describe();
  manifest.created_utc = utc_timestamp();
  manifest.seed = 42;
  manifest.wall_seconds = 1.5;
  manifest.usage = profiler.snapshot();
  manifest.phases.emplace_back("pipeline.detect", 1000);
  manifest.collapsed_wall = "a;b 10\n";
  manifest.extra.emplace_back("app", "SP\"quoted");
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"command\": \"evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.detect\": 1000"), std::string::npos);
  EXPECT_NE(json.find("a;b 10\\n"), std::string::npos);
  EXPECT_NE(json.find("SP\\\"quoted"), std::string::npos);  // escaped
  // ISO-8601 UTC shape.
  ASSERT_EQ(manifest.created_utc.size(), 20u);
  EXPECT_EQ(manifest.created_utc.back(), 'Z');
}

TEST(ObsLevel, ParseAndPrint) {
  EXPECT_EQ(parse_obs_level("off"), ObsLevel::kOff);
  EXPECT_EQ(parse_obs_level("phases"), ObsLevel::kPhases);
  EXPECT_EQ(parse_obs_level("full"), ObsLevel::kFull);
  EXPECT_FALSE(parse_obs_level("verbose").has_value());
  EXPECT_STREQ(to_string(ObsLevel::kFull), "full");
}

TEST(ObsLevel, GatingHelpers) {
  ObsContext ctx;
  ctx.level = ObsLevel::kPhases;
  EXPECT_EQ(tracer_at(nullptr, ObsLevel::kPhases), nullptr);
  EXPECT_EQ(tracer_at(&ctx, ObsLevel::kPhases), &ctx.tracer);
  EXPECT_EQ(tracer_at(&ctx, ObsLevel::kFull), nullptr);
  ctx.level = ObsLevel::kOff;
  EXPECT_EQ(metrics_at(&ctx, ObsLevel::kPhases), nullptr);
}

}  // namespace
}  // namespace tlbmap::obs
