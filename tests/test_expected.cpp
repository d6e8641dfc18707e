// Tests for the structured error taxonomy (DESIGN.md Secs. 11-12): every
// ErrorCode renders to a distinct machine-readable name, Expected<T>
// carries exactly one of value/error, and each failure path — bad mapping,
// watchdog, malformed trace, missing file, corrupt checkpoint, failed suite
// worker — surfaces the code the taxonomy promises.
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/expected.hpp"
#include "core/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/trace_file.hpp"
#include "vector_stream.hpp"

namespace tlbmap {
namespace {

std::vector<TraceEvent> accesses(int n) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < n; ++i) {
    events.push_back(
        TraceEvent::make_access(4096u * (i + 1), AccessType::kRead, 0));
  }
  return events;
}

Machine::RunConfig run_on(std::vector<CoreId> cores) {
  Machine::RunConfig cfg;
  cfg.thread_to_core = std::move(cores);
  return cfg;
}

// ---------------------------------------------------------------------------
// Taxonomy strings.

TEST(ErrorCode, EveryCodeHasADistinctName) {
  const ErrorCode all[] = {
      ErrorCode::kInvalidArgument,    ErrorCode::kInvalidMapping,
      ErrorCode::kMalformedTrace,     ErrorCode::kTruncatedTrace,
      ErrorCode::kIoError,            ErrorCode::kWatchdogTimeout,
      ErrorCode::kDegenerateMatrix,   ErrorCode::kMappingFailure,
      ErrorCode::kWorkerFailure,      ErrorCode::kCorruptCheckpoint,
      ErrorCode::kCheckpointMismatch, ErrorCode::kCorruptTrace,
      ErrorCode::kAdmissionRejected,  ErrorCode::kBackpressure,
      ErrorCode::kSessionQuarantined, ErrorCode::kSaturatedMatrix,
  };
  std::set<std::string> names;
  for (const ErrorCode code : all) {
    const std::string name = to_string(code);
    EXPECT_NE(name, "unknown") << "unnamed code";
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(all)) << "two codes share a name";
}

TEST(ErrorCode, PersistedNumbersAreStable) {
  // The service checkpoint stores a quarantine reason's code as a number,
  // so a code's value never changes; 9 belonged to a retired code.
  EXPECT_EQ(static_cast<int>(ErrorCode::kWorkerFailure), 8);
  EXPECT_EQ(static_cast<int>(ErrorCode::kCorruptCheckpoint), 10);
  EXPECT_EQ(static_cast<int>(ErrorCode::kSessionQuarantined), 15);
  EXPECT_EQ(static_cast<int>(ErrorCode::kSaturatedMatrix), 16);
}

TEST(ErrorCode, ErrorToStringCarriesCodeAndMessage) {
  const Error err{ErrorCode::kIoError, "disk on fire"};
  EXPECT_EQ(err.to_string(), "[io_error] disk on fire");
}

TEST(ErrorCode, ExpectedHoldsExactlyValueOrError) {
  const Expected<int> ok(7);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 7);

  const Expected<int> bad(Error{ErrorCode::kWatchdogTimeout, "late"});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kWatchdogTimeout);
  EXPECT_EQ(bad.error().message, "late");

  const Expected<void> fine;
  EXPECT_TRUE(fine.has_value());
  const Expected<void> broken(Error{ErrorCode::kIoError, "no"});
  EXPECT_FALSE(broken.has_value());
  EXPECT_EQ(broken.error().code, ErrorCode::kIoError);
}

// ---------------------------------------------------------------------------
// Machine::try_run failure paths.

TEST(ExpectedPaths, MappingSizeMismatchIsInvalidMapping) {
  Machine machine(MachineConfig::tiny());
  const auto r = machine.try_run(streams_of({{}, {}}), run_on({0}));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidMapping);
}

TEST(ExpectedPaths, CoreOutOfRangeIsInvalidMapping) {
  Machine machine(MachineConfig::tiny());  // 2 cores
  const auto r = machine.try_run(streams_of({{}, {}}), run_on({0, 99}));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidMapping);
}

TEST(ExpectedPaths, DuplicateCoreIsInvalidMapping) {
  Machine machine(MachineConfig::tiny());
  const auto r = machine.try_run(streams_of({{}, {}}), run_on({0, 0}));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidMapping);
}

TEST(ExpectedPaths, WatchdogBudgetIsWatchdogTimeout) {
  MachineConfig config = MachineConfig::tiny();
  config.watchdog_max_events = 8;
  Machine machine(config);
  const auto r =
      machine.try_run(streams_of({accesses(100), accesses(100)}), run_on({0, 1}));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kWatchdogTimeout);

  // The throwing wrapper maps the same failure to std::runtime_error.
  Machine again(config);
  EXPECT_THROW(
      again.run(streams_of({accesses(100), accesses(100)}), run_on({0, 1})),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Reader-side taxonomy: traces, recordings, checkpoints.

TEST(ExpectedPaths, ValidateTraceCodes) {
  const auto empty = validate_trace({});
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, ErrorCode::kTruncatedTrace);

  const auto bad_magic = validate_trace({'X', 'L', 'B', 'T', 1, 0x01});
  ASSERT_FALSE(bad_magic.has_value());
  EXPECT_EQ(bad_magic.error().code, ErrorCode::kMalformedTrace);
}

TEST(ExpectedPaths, MissingRecordingDirIsIoError) {
  const auto r = try_load_recording("/nonexistent/tlbmap/recording");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
}

TEST(ExpectedPaths, GarbageCheckpointIsCorrupt) {
  const auto unsealed = unseal_checkpoint("garbage", 0);
  ASSERT_FALSE(unsealed.has_value());
  EXPECT_EQ(unsealed.error().code, ErrorCode::kCorruptCheckpoint);

  const auto parsed = parse_checkpoint("TLBKgarbage-but-longer-than-28b", 0);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, ErrorCode::kCorruptCheckpoint);
}

// ---------------------------------------------------------------------------
// Suite-level degradation.

TEST(ExpectedPaths, SuiteWorkerFailuresAreStructuredAndDegrade) {
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  // A watchdog budget no real run fits in: every task fails structurally.
  config.machine.watchdog_max_events = 16;

  const SuiteResult result = run_suite(config);
  EXPECT_TRUE(result.degraded());
  ASSERT_FALSE(result.failures.empty());
  for (const Error& err : result.failures) {
    EXPECT_EQ(err.code, ErrorCode::kWorkerFailure);
    EXPECT_FALSE(err.message.empty());
  }
}

}  // namespace
}  // namespace tlbmap
