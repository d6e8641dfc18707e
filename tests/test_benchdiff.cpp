// Tests for the perf-regression harness: google-benchmark JSON parsing,
// min-of-K folding, noise-aware thresholds, and the benchdiff CLI's exit
// codes (the contract CI relies on).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/benchdiff.hpp"

namespace tlbmap {
namespace {

/// Builds a minimal google-benchmark JSON document from (name, run_type,
/// cpu_time, real_time, unit) tuples.
struct Entry {
  std::string name;
  std::string run_type = "iteration";
  double cpu_time = 0.0;
  double real_time = 0.0;
  std::string unit = "ns";
};

std::string bench_json(const std::vector<Entry>& entries) {
  std::ostringstream out;
  out << "{\"context\":{\"host_name\":\"ci\"},\"benchmarks\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i != 0) out << ',';
    out << "{\"name\":\"" << e.name << "\",\"run_type\":\"" << e.run_type
        << "\",\"iterations\":100,\"real_time\":" << e.real_time
        << ",\"cpu_time\":" << e.cpu_time << ",\"time_unit\":\"" << e.unit
        << "\"}";
  }
  out << "]}";
  return out.str();
}

TEST(BenchDiff, ParsesWellFormedFile) {
  const auto records = parse_benchmark_json(bench_json(
      {{"BM_Sim/8", "iteration", 100.0, 110.0, "ns"},
       {"BM_Sim/8_mean", "aggregate", 101.0, 111.0, "ns"}}));
  ASSERT_TRUE(records.has_value()) << records.error().to_string();
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].name, "BM_Sim/8");
  EXPECT_EQ(records.value()[0].run_type, "iteration");
  EXPECT_DOUBLE_EQ(records.value()[0].cpu_time, 100.0);
  EXPECT_EQ(records.value()[1].run_type, "aggregate");
}

TEST(BenchDiff, ParserRejectsGarbage) {
  EXPECT_FALSE(parse_benchmark_json("").has_value());
  EXPECT_FALSE(parse_benchmark_json("not json").has_value());
  EXPECT_FALSE(parse_benchmark_json("{\"benchmarks\":42}").has_value());
  EXPECT_FALSE(parse_benchmark_json("[1,2,3]").has_value());
  // Truncated file must fail loudly, not diff as "no benchmarks".
  const std::string good = bench_json({{"BM_A", "iteration", 1.0, 1.0}});
  EXPECT_FALSE(parse_benchmark_json(good.substr(0, good.size() - 4)).has_value());
  // An entry without a name is a schema violation.
  EXPECT_FALSE(
      parse_benchmark_json("{\"benchmarks\":[{\"cpu_time\":1}]}").has_value());
}

TEST(BenchDiff, ParsesNonFiniteCounters) {
  // google-benchmark's spelling of a non-finite double, e.g. the _cv
  // aggregate of a counter that is zero in every repetition.
  const auto records = parse_benchmark_json(
      "{\"benchmarks\":[{\"name\":\"BM_A_cv\",\"run_type\":\"aggregate\","
      "\"real_time\":1,\"cpu_time\":1,\"time_unit\":\"ns\","
      "\"rollbacks\":NaN,\"up\":Infinity,\"down\":-Infinity}]}");
  ASSERT_TRUE(records.has_value()) << records.error().to_string();
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].name, "BM_A_cv");
  EXPECT_FALSE(parse_benchmark_json("{\"benchmarks\":[{\"name\":\"BM_A\","
                                    "\"cpu_time\":Nan}]}")
                   .has_value());
}

TEST(BenchDiff, TimeUnitConversion) {
  const auto records = parse_benchmark_json(
      bench_json({{"BM_Us", "iteration", 2.0, 3.0, "us"},
                  {"BM_Ms", "iteration", 2.0, 3.0, "ms"},
                  {"BM_S", "iteration", 2.0, 3.0, "s"}}));
  ASSERT_TRUE(records.has_value());
  EXPECT_DOUBLE_EQ(records.value()[0].time_ns(true), 2000.0);
  EXPECT_DOUBLE_EQ(records.value()[0].time_ns(false), 3000.0);
  EXPECT_DOUBLE_EQ(records.value()[1].time_ns(true), 2e6);
  EXPECT_DOUBLE_EQ(records.value()[2].time_ns(true), 2e9);
}

TEST(BenchDiff, MinOfKFoldsIterationsAndIgnoresAggregates) {
  const auto base = parse_benchmark_json(bench_json(
      {{"BM_Sim", "iteration", 105.0, 105.0},
       {"BM_Sim", "iteration", 100.0, 100.0},
       {"BM_Sim", "iteration", 130.0, 130.0},
       {"BM_Sim_mean", "aggregate", 111.7, 111.7}}));
  const auto cur = parse_benchmark_json(
      bench_json({{"BM_Sim", "iteration", 102.0, 102.0},
                  {"BM_Sim", "iteration", 140.0, 140.0}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  const BenchDiffReport report =
      compare_benchmarks(base.value(), cur.value(), {});
  ASSERT_EQ(report.rows.size(), 1u);  // the aggregate is its own name
  EXPECT_EQ(report.rows[0].name, "BM_Sim");
  EXPECT_DOUBLE_EQ(report.rows[0].base_min_ns, 100.0);
  EXPECT_DOUBLE_EQ(report.rows[0].cur_min_ns, 102.0);
  EXPECT_EQ(report.rows[0].base_samples, 3);
  EXPECT_EQ(report.rows[0].cur_samples, 2);
  // +2% over a 10% threshold: clean; the dropped aggregate doesn't count
  // as a missing benchmark.
  EXPECT_FALSE(report.rows[0].regressed);
  EXPECT_TRUE(report.missing.empty());
  EXPECT_FALSE(report.has_regression);
}

TEST(BenchDiff, MissingBenchmarkFailsUnlessAllowed) {
  const auto base = parse_benchmark_json(
      bench_json({{"BM_Kept", "iteration", 1e4, 1e4},
                  {"BM_Gone", "iteration", 1e4, 1e4}}));
  const auto cur =
      parse_benchmark_json(bench_json({{"BM_Kept", "iteration", 1e4, 1e4}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  const BenchDiffReport report =
      compare_benchmarks(base.value(), cur.value(), {});
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0], "BM_Gone");
  // A silently deleted benchmark is how regressions hide: fail by default...
  EXPECT_TRUE(report.has_regression);
  BenchDiffConfig tolerant;
  tolerant.allow_missing = true;
  EXPECT_FALSE(compare_benchmarks(base.value(), cur.value(), tolerant)
                   .has_regression);  // ...unless allowed
}

TEST(BenchDiff, IdenticalInputsAreClean) {
  const auto records = parse_benchmark_json(
      bench_json({{"BM_A", "iteration", 1000.0, 1000.0},
                  {"BM_B", "iteration", 2e6, 2e6}}));
  ASSERT_TRUE(records.has_value());
  const BenchDiffReport report =
      compare_benchmarks(records.value(), records.value(), {});
  EXPECT_FALSE(report.has_regression);
  for (const BenchComparison& row : report.rows) {
    EXPECT_FALSE(row.regressed);
    EXPECT_DOUBLE_EQ(row.delta(), 0.0);
  }
  EXPECT_NE(report.render().find("verdict: clean"), std::string::npos);
}

TEST(BenchDiff, TwentyPercentSlowdownRegresses) {
  const auto base = parse_benchmark_json(
      bench_json({{"BM_Sim", "iteration", 10000.0, 10000.0}}));
  const auto cur = parse_benchmark_json(
      bench_json({{"BM_Sim", "iteration", 12000.0, 12000.0}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  const BenchDiffReport report =
      compare_benchmarks(base.value(), cur.value(), {});
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_TRUE(report.rows[0].regressed);
  EXPECT_TRUE(report.has_regression);
  EXPECT_NEAR(report.rows[0].delta(), 0.20, 1e-9);
  EXPECT_NE(report.render().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, AbsoluteFloorShieldsNanoScaleJitter) {
  // +50% relative but only +3 ns absolute: under the 50 ns floor => clean.
  const auto base =
      parse_benchmark_json(bench_json({{"BM_Tiny", "iteration", 6.0, 6.0}}));
  const auto cur =
      parse_benchmark_json(bench_json({{"BM_Tiny", "iteration", 9.0, 9.0}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  EXPECT_FALSE(
      compare_benchmarks(base.value(), cur.value(), {}).has_regression);
  // Dropping the floor exposes it.
  BenchDiffConfig strict;
  strict.abs_floor_ns = 0.0;
  EXPECT_TRUE(
      compare_benchmarks(base.value(), cur.value(), strict).has_regression);
}

TEST(BenchDiff, ThresholdBoundaryIsExclusive) {
  // Exactly +10% with a 0.10 threshold must NOT regress (strict >).
  const auto base = parse_benchmark_json(
      bench_json({{"BM_Edge", "iteration", 10000.0, 10000.0}}));
  const auto cur = parse_benchmark_json(
      bench_json({{"BM_Edge", "iteration", 11000.0, 11000.0}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  EXPECT_FALSE(
      compare_benchmarks(base.value(), cur.value(), {}).has_regression);
}

TEST(BenchDiff, RealTimeFlagSwitchesField) {
  // cpu_time regressed, real_time did not: default (cpu) fails, real passes.
  const auto base = parse_benchmark_json(
      bench_json({{"BM_Mix", "iteration", 10000.0, 10000.0}}));
  const auto cur = parse_benchmark_json(
      bench_json({{"BM_Mix", "iteration", 13000.0, 10001.0}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  EXPECT_TRUE(
      compare_benchmarks(base.value(), cur.value(), {}).has_regression);
  BenchDiffConfig real;
  real.use_cpu_time = false;
  EXPECT_FALSE(
      compare_benchmarks(base.value(), cur.value(), real).has_regression);
}

TEST(BenchDiff, AddedBenchmarksAreInformational) {
  const auto base =
      parse_benchmark_json(bench_json({{"BM_Old", "iteration", 1e4, 1e4}}));
  const auto cur =
      parse_benchmark_json(bench_json({{"BM_Old", "iteration", 1e4, 1e4},
                                       {"BM_New", "iteration", 1e4, 1e4}}));
  ASSERT_TRUE(base.has_value() && cur.has_value());
  const BenchDiffReport report =
      compare_benchmarks(base.value(), cur.value(), {});
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0], "BM_New");
  EXPECT_FALSE(report.has_regression);
}

/// Writes `text` to a temp file and returns its path.
std::string write_temp(const std::string& tag, const std::string& text) {
  const std::string path =
      testing::TempDir() + "benchdiff_" + tag + ".json";
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(BenchDiffCli, ExitCodesMatchContract) {
  const std::string base = write_temp(
      "base", bench_json({{"BM_Sim", "iteration", 10000.0, 10000.0}}));
  const std::string slow = write_temp(
      "slow", bench_json({{"BM_Sim", "iteration", 12000.0, 12000.0}}));
  const std::string bad = write_temp("bad", "{broken");

  std::ostringstream out;
  std::ostringstream err;
  const char* clean_argv[] = {"tlbmap_benchdiff", base.c_str(), base.c_str()};
  EXPECT_EQ(run_benchdiff(3, clean_argv, out, err), 0);
  EXPECT_NE(out.str().find("verdict: clean"), std::string::npos);

  const char* slow_argv[] = {"tlbmap_benchdiff", base.c_str(), slow.c_str()};
  EXPECT_EQ(run_benchdiff(3, slow_argv, out, err), 1);

  // A generous threshold lets the same slowdown through.
  const char* loose_argv[] = {"tlbmap_benchdiff", base.c_str(), slow.c_str(),
                              "--threshold", "3.0"};
  EXPECT_EQ(run_benchdiff(5, loose_argv, out, err), 0);

  const char* bad_argv[] = {"tlbmap_benchdiff", base.c_str(), bad.c_str()};
  EXPECT_EQ(run_benchdiff(3, bad_argv, out, err), 2);

  const char* missing_argv[] = {"tlbmap_benchdiff", base.c_str(),
                                "/nonexistent/x.json"};
  EXPECT_EQ(run_benchdiff(3, missing_argv, out, err), 2);

  const char* usage_argv[] = {"tlbmap_benchdiff", base.c_str()};
  EXPECT_EQ(run_benchdiff(2, usage_argv, out, err), 2);

  std::remove(base.c_str());
  std::remove(slow.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace tlbmap
