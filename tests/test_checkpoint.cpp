// Crash-safety tests (DESIGN.md Sec. 12): the atomic file primitives, the
// TLBK checkpoint envelope and its corruption taxonomy, in-memory
// detector/mapper state restores, and — the acceptance bar — resume
// determinism: a suite interrupted and resumed must produce a SuiteResult
// bit-identical to an uninterrupted run, and a corrupted checkpoint must be
// rejected with a structured error and a clean fresh-run fallback, never a
// crash.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "core/shutdown.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"
#include "vector_stream.hpp"

namespace tlbmap {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, under gtest's temp root.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) /
                 ("tlbmap_ckpt_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The shutdown flag is process-wide; every test that touches it clears it
/// on both ends so a failing test cannot poison its neighbours.
struct ShutdownGuard {
  ShutdownGuard() { reset_shutdown(); }
  ~ShutdownGuard() { reset_shutdown(); }
};

/// Canned stream fed from a vector of events (same idiom as test_machine).
Machine::RunConfig identity_run(int n) {
  Machine::RunConfig cfg;
  for (int t = 0; t < n; ++t) cfg.thread_to_core.push_back(t);
  return cfg;
}

/// One-app suite small enough for differential runs in a unit test.
SuiteConfig tiny_suite() {
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 2;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  return config;
}

// ---------------------------------------------------------------------------
// Atomic file primitives.

TEST(Io, Crc32KnownVectors) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Io, AtomicWriteCreatesAndReplaces) {
  const fs::path dir = scratch_dir("atomic_write");
  const fs::path file = dir / "artifact.txt";

  ASSERT_TRUE(atomic_write_file(file, "first").has_value());
  auto read = read_file(file);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "first");

  ASSERT_TRUE(atomic_write_file(file, "second, longer contents").has_value());
  read = read_file(file);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "second, longer contents");

  // No temp files survive a successful write.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename(), "artifact.txt");
  }
  EXPECT_EQ(entries, 1);
}

TEST(Io, AtomicWriteMissingParentIsStructuredError) {
  const fs::path dir = scratch_dir("atomic_missing");
  const auto written = atomic_write_file(dir / "no_such" / "f.txt", "x");
  ASSERT_FALSE(written.has_value());
  EXPECT_EQ(written.error().code, ErrorCode::kIoError);
  EXPECT_FALSE(written.error().message.empty());
}

TEST(Io, ReadFileMissingIsStructuredError) {
  const fs::path dir = scratch_dir("read_missing");
  const auto read = read_file(dir / "absent.txt");
  ASSERT_FALSE(read.has_value());
  EXPECT_EQ(read.error().code, ErrorCode::kIoError);
}

TEST(Io, ConcurrentWritersNeverExposeTornFile) {
  const fs::path dir = scratch_dir("concurrent");
  const fs::path file = dir / "contended.txt";
  constexpr int kWriters = 4;
  constexpr int kRounds = 20;
  constexpr std::size_t kSize = 8192;

  ASSERT_TRUE(
      atomic_write_file(file, std::string(kSize, 'Z')).has_value());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto read = read_file(file);
      if (!read.has_value()) continue;  // raced the rename window
      const std::string& body = *read;
      // Every observed file must be one complete variant: full length and
      // a single repeated byte.
      if (body.size() != kSize ||
          body.find_first_not_of(body[0]) != std::string::npos) {
        torn.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string body(kSize, static_cast<char>('A' + w));
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(atomic_write_file(file, body).has_value());
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
}

TEST(Io, KilledWriterLeavesTargetComplete) {
  const fs::path dir = scratch_dir("killed_writer");
  const fs::path file = dir / "artifact.bin";
  constexpr std::size_t kSize = 1 << 16;

  ASSERT_TRUE(atomic_write_file(file, std::string(kSize, 'A')).has_value());

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: rewrite the artifact in a tight loop until killed mid-write.
    for (;;) {
      (void)atomic_write_file(file, std::string(kSize, 'B'));
    }
    _exit(0);  // unreachable
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // SIGKILL at any instant must leave the target as one complete variant;
  // a leftover temp file is acceptable, a torn target is not.
  const auto read = read_file(file);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->size(), kSize);
  EXPECT_TRUE(*read == std::string(kSize, 'A') ||
              *read == std::string(kSize, 'B'));
}

// ---------------------------------------------------------------------------
// Envelope: seal/unseal and the corruption taxonomy.

TEST(Checkpoint, SealUnsealRoundTrip) {
  const std::string payload = "hello checkpoint";
  const std::string bytes = seal_checkpoint(payload, 0xABCDu);
  const auto back = unseal_checkpoint(bytes, 0xABCDu);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(Checkpoint, TruncatedHeaderIsCorrupt) {
  const std::string bytes = seal_checkpoint("payload", 1);
  const auto r = unseal_checkpoint(bytes.substr(0, 10), 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("truncated"), std::string::npos);
  EXPECT_NE(r.error().message.find("byte"), std::string::npos);
}

TEST(Checkpoint, BadMagicIsCorrupt) {
  std::string bytes = seal_checkpoint("payload", 1);
  bytes[0] = 'X';
  const auto r = unseal_checkpoint(bytes, 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(Checkpoint, VersionSkewIsCorruptWithVersionInMessage) {
  std::string bytes = seal_checkpoint("payload", 1);
  bytes[4] = static_cast<char>(kCheckpointVersion + 1);  // version, offset 4
  const auto r = unseal_checkpoint(bytes, 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("version"), std::string::npos);
}

TEST(Checkpoint, SizeFieldMismatchIsCorrupt) {
  std::string bytes = seal_checkpoint("payload", 1);
  bytes.pop_back();  // file now one byte shorter than the size field claims
  const auto r = unseal_checkpoint(bytes, 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("size"), std::string::npos);
}

TEST(Checkpoint, PayloadBitFlipIsCrcMismatch) {
  std::string bytes = seal_checkpoint("payload", 1);
  bytes.back() ^= 0x01;
  const auto r = unseal_checkpoint(bytes, 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("CRC"), std::string::npos);
}

TEST(Checkpoint, WrongConfigHashIsMismatch) {
  const std::string bytes = seal_checkpoint("payload", 0x1111u);
  const auto r = unseal_checkpoint(bytes, 0x2222u);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCheckpointMismatch);
}

TEST(Checkpoint, IntegrityIsCheckedBeforeIdentity) {
  // A corrupt file must never be reported as a config mismatch, even when
  // both problems are present: its hash field is untrustworthy.
  std::string bytes = seal_checkpoint("payload", 0x1111u);
  bytes.back() ^= 0x01;
  const auto r = unseal_checkpoint(bytes, 0x2222u);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
}

// ---------------------------------------------------------------------------
// Suite checkpoint payload round-trip.

SuiteCheckpoint sample_checkpoint() {
  SuiteCheckpoint ckpt;
  ckpt.config_hash = 0xDEADBEEFu;
  ckpt.detect_tasks = 3;
  ckpt.eval_tasks = 6;

  DetectionResult det;
  det.mechanism = "SM";
  det.searches = 17;
  det.matrix = CommMatrix(4);
  det.matrix.add(0, 1, 100);
  det.matrix.add(2, 3, 41);
  det.stats.accesses = 1234;
  det.stats.tlb_misses = 56;
  det.stats.invalidations = 7;
  det.stats.execution_cycles = 99999;
  ckpt.detect_done[0] = det;
  det.mechanism = "oracle";
  det.searches = 0;
  ckpt.detect_done[2] = det;

  ckpt.map_done = true;
  ckpt.sm_mappings = {{0, 2, 1, 3}};
  ckpt.hm_mappings = {{3, 1, 2, 0}};

  MachineStats stats;
  stats.accesses = 777;
  stats.snoop_transactions = 13;
  stats.execution_cycles = 4242;
  ckpt.eval_done[1] = stats;
  ckpt.eval_done[5] = MachineStats{};
  return ckpt;
}

TEST(Checkpoint, SuiteCheckpointRoundTrip) {
  const SuiteCheckpoint ckpt = sample_checkpoint();
  const std::string bytes = serialize_checkpoint(ckpt);
  const auto back = parse_checkpoint(bytes, ckpt.config_hash);
  ASSERT_TRUE(back.has_value());

  EXPECT_EQ(back->config_hash, ckpt.config_hash);
  EXPECT_EQ(back->detect_tasks, ckpt.detect_tasks);
  EXPECT_EQ(back->eval_tasks, ckpt.eval_tasks);
  EXPECT_EQ(back->map_done, ckpt.map_done);
  EXPECT_EQ(back->sm_mappings, ckpt.sm_mappings);
  EXPECT_EQ(back->hm_mappings, ckpt.hm_mappings);
  ASSERT_EQ(back->detect_done.size(), ckpt.detect_done.size());
  for (const auto& [idx, det] : ckpt.detect_done) {
    const auto it = back->detect_done.find(idx);
    ASSERT_NE(it, back->detect_done.end());
    EXPECT_EQ(it->second.mechanism, det.mechanism);
    EXPECT_EQ(it->second.searches, det.searches);
    EXPECT_TRUE(it->second.matrix == det.matrix);
    EXPECT_TRUE(it->second.stats == det.stats);
  }
  ASSERT_EQ(back->eval_done.size(), ckpt.eval_done.size());
  for (const auto& [idx, stats] : ckpt.eval_done) {
    const auto it = back->eval_done.find(idx);
    ASSERT_NE(it, back->eval_done.end());
    EXPECT_TRUE(it->second == stats);
  }

  // A second serialization is byte-identical (the file is canonical).
  EXPECT_EQ(serialize_checkpoint(*back), bytes);
}

TEST(Checkpoint, TrailingPayloadBytesAreRejected) {
  const SuiteCheckpoint ckpt = sample_checkpoint();
  const auto payload =
      unseal_checkpoint(serialize_checkpoint(ckpt), ckpt.config_hash);
  ASSERT_TRUE(payload.has_value());
  const std::string resealed =
      seal_checkpoint(*payload + "Z", ckpt.config_hash);
  const auto r = parse_checkpoint(resealed, ckpt.config_hash);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptCheckpoint);
  EXPECT_NE(r.error().message.find("trailing"), std::string::npos);
}

TEST(Checkpoint, SaveLoadRoundTripsThroughDisk) {
  const fs::path dir = scratch_dir("save_load");
  const fs::path file = dir / "suite.ckpt";
  const SuiteCheckpoint ckpt = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(file, ckpt).has_value());
  const auto back = load_checkpoint(file, ckpt.config_hash);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_checkpoint(*back), serialize_checkpoint(ckpt));

  // Missing file surfaces as a filesystem error, not corruption.
  const auto missing = load_checkpoint(dir / "absent.ckpt", 0);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

// ---------------------------------------------------------------------------
// Cooperative shutdown: machine-level and suite-level.

TEST(Shutdown, MachineTryRunReturnsInterrupted) {
  ShutdownGuard guard;
  Machine machine(MachineConfig::tiny());
  request_shutdown();
  const auto result =
      machine.try_run(streams_of({{}, {}}), identity_run(2));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInterrupted);
}

TEST(Shutdown, MachineRunThrowsInterruptedError) {
  ShutdownGuard guard;
  Machine machine(MachineConfig::tiny());
  request_shutdown();
  EXPECT_THROW(machine.run(streams_of({{}, {}}), identity_run(2)),
               InterruptedError);
}

TEST(Shutdown, SuiteInterruptedAtStartSavesEmptyProgress) {
  ShutdownGuard guard;
  const fs::path dir = scratch_dir("suite_interrupt");
  SuiteConfig config = tiny_suite();
  config.checkpoint_dir = dir.string();

  request_shutdown();
  const SuiteResult result = run_suite(config);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(fs::exists(dir / "suite.ckpt"));

  const auto ckpt =
      load_checkpoint(dir / "suite.ckpt", suite_config_hash(config));
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->detect_done.size(), 0u);
  EXPECT_FALSE(ckpt->map_done);
}

// ---------------------------------------------------------------------------
// Resume determinism: the acceptance bar of DESIGN.md Sec. 12.

TEST(Resume, PartialCheckpointContinuesBitIdentically) {
  ShutdownGuard guard;
  SuiteConfig reference_config = tiny_suite();
  const SuiteResult reference = run_suite(reference_config);
  ASSERT_FALSE(reference.degraded());
  ASSERT_EQ(reference.apps.size(), 1u);

  // Hand-build the checkpoint an interrupted run would have left after the
  // first two detect tasks (task idx = app*3 + {SM, HM, oracle}) and two
  // eval tasks, which pin the eval layout: idx = (app*reps + rep)*3 +
  // {OS, SM, HM}.
  const fs::path dir = scratch_dir("resume_partial");
  SuiteCheckpoint ckpt;
  ckpt.config_hash = suite_config_hash(reference_config);
  ckpt.detect_tasks = 3;
  ckpt.eval_tasks = 6;
  ckpt.detect_done[0] = reference.apps[0].sm_detection;
  ckpt.detect_done[1] = reference.apps[0].hm_detection;
  ckpt.eval_done[1] = reference.apps[0].sm_runs.runs[0];  // app 0, rep 0, SM
  ckpt.eval_done[3] = reference.apps[0].os_runs.runs[1];  // app 0, rep 1, OS
  ASSERT_TRUE(save_checkpoint(dir / "suite.ckpt", ckpt).has_value());

  SuiteConfig resume_config = reference_config;
  resume_config.checkpoint_dir = dir.string();
  resume_config.resume = true;
  obs::ObsContext ctx;
  const SuiteResult resumed = run_suite(resume_config, nullptr, &ctx);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_TRUE(resumed.apps == reference.apps);
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.resumed_tasks"), 4u);
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.rejected"), 0u);
  // A completed suite retires its checkpoint.
  EXPECT_FALSE(fs::exists(dir / "suite.ckpt"));
}

TEST(Resume, InterruptThenResumeMatchesUninterruptedRun) {
  ShutdownGuard guard;
  SuiteConfig reference_config = tiny_suite();
  const SuiteResult reference = run_suite(reference_config);
  ASSERT_FALSE(reference.degraded());

  const fs::path dir = scratch_dir("resume_live");
  SuiteConfig config = reference_config;
  config.checkpoint_dir = dir.string();

  // Interrupt the run from a side thread; wherever the shutdown lands, the
  // resumed result must be bit-identical to the uninterrupted reference.
  std::thread interrupter([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    request_shutdown();
  });
  const SuiteResult first = run_suite(config);
  interrupter.join();
  reset_shutdown();

  SuiteConfig resume_config = config;
  resume_config.resume = true;
  const SuiteResult resumed = run_suite(resume_config);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_TRUE(resumed.apps == reference.apps);
  EXPECT_FALSE(fs::exists(dir / "suite.ckpt"));
}

TEST(Resume, GarbageCheckpointFallsBackToFreshRun) {
  ShutdownGuard guard;
  SuiteConfig reference_config = tiny_suite();
  const SuiteResult reference = run_suite(reference_config);

  const fs::path dir = scratch_dir("resume_garbage");
  ASSERT_TRUE(
      atomic_write_file(dir / "suite.ckpt", "definitely not a checkpoint")
          .has_value());

  SuiteConfig config = reference_config;
  config.checkpoint_dir = dir.string();
  config.resume = true;
  obs::ObsContext ctx;
  const SuiteResult result = run_suite(config, nullptr, &ctx);

  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.degraded());
  EXPECT_TRUE(result.apps == reference.apps);
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.rejected"), 1u);
}

TEST(Resume, ForeignConfigCheckpointIsRejectedAndRunIsFresh) {
  ShutdownGuard guard;
  SuiteConfig reference_config = tiny_suite();
  const SuiteResult reference = run_suite(reference_config);

  // A structurally valid checkpoint sealed for a different config hash.
  const fs::path dir = scratch_dir("resume_foreign");
  SuiteCheckpoint foreign;
  foreign.config_hash = suite_config_hash(reference_config) ^ 0x1;
  foreign.detect_tasks = 3;
  foreign.eval_tasks = 6;
  ASSERT_TRUE(save_checkpoint(dir / "suite.ckpt", foreign).has_value());

  SuiteConfig config = reference_config;
  config.checkpoint_dir = dir.string();
  config.resume = true;
  obs::ObsContext ctx;
  const SuiteResult result = run_suite(config, nullptr, &ctx);

  EXPECT_FALSE(result.interrupted);
  EXPECT_TRUE(result.apps == reference.apps);
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.rejected"), 1u);
}

TEST(Resume, CheckpointShapeMismatchIsRejected) {
  // Same config hash but an impossible task shape (e.g. written by a buggy
  // producer): the second guard behind the hash rejects it cleanly.
  ShutdownGuard guard;
  SuiteConfig config = tiny_suite();
  const fs::path dir = scratch_dir("resume_shape");
  SuiteCheckpoint bad;
  bad.config_hash = suite_config_hash(config);
  bad.detect_tasks = 99;  // config implies 3
  bad.eval_tasks = 6;
  ASSERT_TRUE(save_checkpoint(dir / "suite.ckpt", bad).has_value());

  config.checkpoint_dir = dir.string();
  config.resume = true;
  obs::ObsContext ctx;
  const SuiteResult result = run_suite(config, nullptr, &ctx);
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(ctx.metrics.counter_value("checkpoint.rejected"), 1u);
}

}  // namespace
}  // namespace tlbmap
