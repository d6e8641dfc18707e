// Differential tests for the simulator's engine fast paths. Each fast path
// (the coherence line-occupancy directory, the per-core translation memo +
// sibling-shootdown presence check, the SIMD tag scans) claims to be a pure
// acceleration: the simulated outcome — every MachineStats counter — must
// be bit-identical to the reference path. These tests run real NPB
// workloads under both paths and compare the full counter structs, across
// UMA and both NUMA policies, static and migrating (dynamic) runs. They
// also hold the directory to its ground truth: after arbitrary runs, every
// directory bit must agree with the actual L2 contents. The heap
// scheduler, which has no second picker left to compare against, is held
// to pinned MachineStats instead.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "detect/hm_detector.hpp"
#include "mapping/mapping.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"
#include "sim/scan.hpp"

namespace tlbmap {
namespace {

WorkloadParams small_params(int threads = 8) {
  WorkloadParams p;
  p.num_threads = threads;
  p.size_scale = 0.5;
  p.iter_scale = 0.25;
  return p;
}

std::vector<std::unique_ptr<ThreadStream>> streams_of(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    streams.push_back(workload.stream(t, seed));
  }
  return streams;
}

MachineConfig machine_variant(const std::string& variant) {
  if (variant == "uma") return MachineConfig::harpertown();
  MachineConfig m = MachineConfig::numa_harpertown();
  if (variant == "numa_interleave") m.numa_policy = NumaPolicy::kInterleave;
  return m;
}

/// One full run at the Machine level with every engine knob exposed.
MachineStats run_app(const MachineConfig& machine_config,
                     const Workload& workload, const Mapping& mapping,
                     bool fast_hierarchy, std::uint64_t seed) {
  Machine machine(machine_config);
  machine.hierarchy().set_fast_path_enabled(fast_hierarchy);
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  return machine.run(streams_of(workload, seed), run);
}

struct DiffParam {
  const char* app;
  const char* variant;  ///< "uma" | "numa_first_touch" | "numa_interleave"
};

class CoherenceDirectoryDifferential
    : public ::testing::TestWithParam<DiffParam> {};

// The tentpole contract: directory-resolved coherence produces exactly the
// statistics of the walked broadcast — probe traffic, snoop transactions,
// invalidations, writebacks, latencies — on identity and scrambled
// placements alike.
TEST_P(CoherenceDirectoryDifferential, BitIdenticalStatsToBroadcast) {
  const auto [app, variant] = GetParam();
  const auto workload = make_npb_workload(app, small_params());
  MachineConfig directory_config = machine_variant(variant);
  directory_config.coherence_broadcast = false;
  MachineConfig broadcast_config = directory_config;
  broadcast_config.coherence_broadcast = true;

  const Mapping mappings[] = {
      identity_mapping(workload->num_threads()),
      random_mapping(workload->num_threads(), directory_config.num_cores(),
                     /*seed=*/97),
  };
  for (const Mapping& mapping : mappings) {
    const MachineStats with_directory =
        run_app(directory_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/5);
    const MachineStats with_broadcast =
        run_app(broadcast_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/5);
    EXPECT_TRUE(with_directory == with_broadcast)
        << app << "/" << variant << ": directory and broadcast stats differ "
        << "(cycles " << with_directory.execution_cycles << " vs "
        << with_broadcast.execution_cycles << ", invalidations "
        << with_directory.invalidations << " vs "
        << with_broadcast.invalidations << ", messages "
        << with_directory.intra_socket_messages << "+"
        << with_directory.inter_socket_messages << " vs "
        << with_broadcast.intra_socket_messages << "+"
        << with_broadcast.inter_socket_messages << ")";
  }
}

// The hierarchy fast paths (translation memo, shootdown presence check) are
// equally invisible in the statistics.
TEST_P(CoherenceDirectoryDifferential, HierarchyFastPathIsInvisible) {
  const auto [app, variant] = GetParam();
  const auto workload = make_npb_workload(app, small_params());
  const MachineConfig config = machine_variant(variant);
  const Mapping mapping = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/31);
  const MachineStats fast = run_app(config, *workload, mapping,
                                    /*fast_hierarchy=*/true, /*seed=*/7);
  const MachineStats slow = run_app(config, *workload, mapping,
                                    /*fast_hierarchy=*/false, /*seed=*/7);
  EXPECT_TRUE(fast == slow)
      << app << "/" << variant << ": hierarchy fast path changed stats "
      << "(tlb " << fast.tlb_hits << "/" << fast.tlb_misses << " vs "
      << slow.tlb_hits << "/" << slow.tlb_misses << ", cycles "
      << fast.execution_cycles << " vs " << slow.execution_cycles << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndMachines, CoherenceDirectoryDifferential,
    ::testing::Values(DiffParam{"SP", "uma"}, DiffParam{"CG", "uma"},
                      DiffParam{"UA", "uma"}, DiffParam{"FT", "numa_first_touch"},
                      DiffParam{"MG", "numa_first_touch"},
                      DiffParam{"SP", "numa_interleave"},
                      DiffParam{"LU", "numa_interleave"}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(info.param.app) + "_" + info.param.variant;
    });

// Migration runs exercise the remaining path: detection attached, threads
// moving between sockets at barriers, caches cooling behind them. The
// dynamic result (stats, migration count, final placement) must not depend
// on how coherence probes are resolved.
TEST(CoherenceDirectoryDifferential, DynamicMigrationRunsMatchBroadcast) {
  const auto workload = make_npb_workload("SP", small_params());
  MachineConfig directory_config = MachineConfig::harpertown();
  MachineConfig broadcast_config = directory_config;
  broadcast_config.coherence_broadcast = true;

  const Mapping initial = random_mapping(workload->num_threads(),
                                         directory_config.num_cores(),
                                         /*seed=*/123);
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;

  Pipeline directory_pipe(directory_config);
  Pipeline broadcast_pipe(broadcast_config);
  const auto with_directory =
      directory_pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);
  const auto with_broadcast =
      broadcast_pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);

  EXPECT_TRUE(with_directory.stats == with_broadcast.stats);
  EXPECT_EQ(with_directory.migrations, with_broadcast.migrations);
  EXPECT_EQ(with_directory.remap_decisions, with_broadcast.remap_decisions);
  EXPECT_EQ(with_directory.final_mapping, with_broadcast.final_mapping);
}

/// Restores the process-global scan toggle even if an assertion fires.
struct ScopedScalarScan {
  ScopedScalarScan() { set_simd_scan_enabled(false); }
  ~ScopedScalarScan() { set_simd_scan_enabled(true); }
};

// The SoA tag-scan kernels (scan.hpp) are the fourth engine fast path:
// TLB lookups, cache set scans and the HM sweep read dense uint64 tag
// mirrors instead of striding through structs. Same contract as the rest —
// the simulated outcome must be bit-identical to the scalar reference
// walk, on static and detection-driven dynamic runs alike.
TEST(ScanKernelDifferential, SimdAndScalarScansProduceIdenticalRuns) {
  for (const char* variant : {"uma", "numa_first_touch"}) {
    const auto workload = make_npb_workload("SP", small_params());
    const MachineConfig config = machine_variant(variant);
    const Mapping mapping = random_mapping(workload->num_threads(),
                                           config.num_cores(), /*seed=*/53);
    ASSERT_TRUE(simd_scan_enabled());  // default on
    const MachineStats simd = run_app(config, *workload, mapping,
                                      /*fast_hierarchy=*/true, /*seed=*/7);
    MachineStats scalar;
    {
      ScopedScalarScan scoped;
      scalar = run_app(config, *workload, mapping,
                       /*fast_hierarchy=*/true, /*seed=*/7);
    }
    EXPECT_TRUE(simd == scalar)
        << variant << ": SoA tag scan changed simulated results (tlb "
        << simd.tlb_hits << "/" << simd.tlb_misses << " vs "
        << scalar.tlb_hits << "/" << scalar.tlb_misses << ", cycles "
        << simd.execution_cycles << " vs " << scalar.execution_cycles << ")";
  }
}

// The HM detector's sweep reads the tag mirrors directly (naive pairwise
// and inverted-index paths both); the communication matrix and the dynamic
// mapping decisions built from it must not notice.
TEST(ScanKernelDifferential, HmSweepMatchesScalarOnDynamicRuns) {
  const auto workload = make_npb_workload("CG", small_params());
  const MachineConfig config = MachineConfig::harpertown();
  const Mapping initial = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/59);
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;

  auto run_dynamic = [&] {
    Pipeline pipe(config);
    return pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);
  };
  const auto simd = run_dynamic();
  ScopedScalarScan scoped;
  const auto scalar = run_dynamic();
  EXPECT_TRUE(simd.stats == scalar.stats);
  EXPECT_EQ(simd.migrations, scalar.migrations);
  EXPECT_EQ(simd.remap_decisions, scalar.remap_decisions);
  EXPECT_EQ(simd.final_mapping, scalar.final_mapping);
}

// The scheduler is one (clock, id) min-heap at every thread count, with no
// second picker to compare against. These runs pin its picks instead:
// each expected MachineStats was recorded with the earlier pickers (a
// linear scan at 8 threads, a pop-and-push heap at 256), and every
// counter, execution_cycles included, depends on the exact interleaving
// the picker chose.
TEST(SchedulerPinned, RandomMappingRunsMatchRecordedStats) {
  struct Case {
    const char* app;
    MachineStats expected;
  };
  const Case cases[] = {
      {"SP",
       MachineStats{.accesses = 190464u, .reads = 141312u, .writes = 49152u,
                    .tlb_hits = 190180u, .tlb_misses = 284u, .l1_hits = 86784u,
                    .l1_misses = 103680u, .l2_accesses = 152832u,
                    .l2_hits = 132608u, .l2_misses = 20224u,
                    .invalidations = 3840u, .snoop_transactions = 3840u,
                    .writebacks = 2560u, .memory_fetches = 16384u,
                    .memory_fetches_local = 16384u,
                    .memory_fetches_remote = 0u,
                    .intra_socket_messages = 23296u,
                    .inter_socket_messages = 45056u,
                    .execution_cycles = 548521u,
                    .detection_overhead_cycles = 0u, .detector_searches = 0u}},
      {"CG",
       MachineStats{.accesses = 94208u, .reads = 65536u, .writes = 28672u,
                    .tlb_hits = 93994u, .tlb_misses = 214u, .l1_hits = 45795u,
                    .l1_misses = 48413u, .l2_accesses = 71063u,
                    .l2_hits = 54249u, .l2_misses = 16814u,
                    .invalidations = 4417u, .snoop_transactions = 4462u,
                    .writebacks = 3679u, .memory_fetches = 12352u,
                    .memory_fetches_local = 12352u,
                    .memory_fetches_remote = 0u,
                    .intra_socket_messages = 20017u,
                    .inter_socket_messages = 39027u,
                    .execution_cycles = 368664u,
                    .detection_overhead_cycles = 0u, .detector_searches = 0u}},
      {"IS",
       MachineStats{.accesses = 126976u, .reads = 98304u, .writes = 28672u,
                    .tlb_hits = 126436u, .tlb_misses = 540u, .l1_hits = 45230u,
                    .l1_misses = 81746u, .l2_accesses = 85842u,
                    .l2_hits = 54040u, .l2_misses = 31802u,
                    .invalidations = 2446u, .snoop_transactions = 3982u,
                    .writebacks = 2958u, .memory_fetches = 27820u,
                    .memory_fetches_local = 27820u,
                    .memory_fetches_remote = 0u,
                    .intra_socket_messages = 33803u,
                    .inter_socket_messages = 65585u,
                    .execution_cycles = 663165u,
                    .detection_overhead_cycles = 0u, .detector_searches = 0u}},
  };
  for (const Case& c : cases) {
    const auto workload = make_npb_workload(c.app, small_params());
    const MachineConfig config = MachineConfig::harpertown();
    const Mapping mapping = random_mapping(workload->num_threads(),
                                           config.num_cores(), /*seed=*/17);
    const MachineStats got = run_app(config, *workload, mapping,
                                     /*fast_hierarchy=*/true, /*seed=*/3);
    EXPECT_EQ(got, c.expected) << c.app;
  }
}

// Barrier releases re-seed the heap and a migration moves clocks by the
// migration cost; this BT run starts from a placement that splits partners
// across sockets, so the OnlineMapper migrates once mid-run.
TEST(SchedulerPinned, MigratingRunMatchesRecordedStats) {
  const auto workload = make_npb_workload("BT", small_params());
  const MachineConfig config = MachineConfig::harpertown();
  const Mapping initial = {0, 4, 1, 5, 2, 6, 3, 7};
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;
  online.detector.sample_threshold = 1;
  online.migration_cooldown = 0;

  Machine machine(config);
  OnlineMapper mapper(machine, workload->num_threads(), initial, online);
  Machine::RunConfig run;
  run.thread_to_core = initial;
  run.observer = &mapper;
  run.migration = &mapper;
  const MachineStats got =
      machine.run(streams_of(*workload, /*seed=*/11), run);

  const MachineStats expected =
      MachineStats{.accesses = 137216u, .reads = 88064u, .writes = 49152u,
                   .tlb_hits = 136036u, .tlb_misses = 1180u, .l1_hits = 61824u,
                   .l1_misses = 75392u, .l2_accesses = 124544u,
                   .l2_hits = 73600u, .l2_misses = 50944u,
                   .invalidations = 1792u, .snoop_transactions = 1792u,
                   .writebacks = 0u, .memory_fetches = 49152u,
                   .memory_fetches_local = 49152u, .memory_fetches_remote = 0u,
                   .intra_socket_messages = 50944u,
                   .inter_socket_messages = 105472u,
                   .execution_cycles = 1111534u,
                   .detection_overhead_cycles = 34188u,
                   .detector_searches = 0u};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(mapper.migrations(), 1);
  EXPECT_EQ(mapper.remap_decisions(), 1);
  EXPECT_EQ(mapper.current_mapping(), identity_mapping(8));
}

// HM sweeps stall every thread by the same amount; the heap shifts all its
// entries instead of re-seeding. 20 sweeps land in this run.
TEST(SchedulerPinned, HmSweepStallsMatchRecordedStats) {
  const auto workload = make_npb_workload("CG", small_params());
  const MachineConfig config = MachineConfig::harpertown();
  Machine machine(config);
  HmDetectorConfig hm;
  hm.interval = 20'000;
  hm.search_cost = 2'000;
  HmDetector detector(machine, workload->num_threads(), hm);
  Machine::RunConfig run;
  run.thread_to_core = random_mapping(workload->num_threads(),
                                      config.num_cores(), /*seed=*/37);
  run.observer = &detector;
  const MachineStats got = machine.run(streams_of(*workload, /*seed=*/5), run);

  const MachineStats expected =
      MachineStats{.accesses = 94208u, .reads = 65536u, .writes = 28672u,
                   .tlb_hits = 93994u, .tlb_misses = 214u, .l1_hits = 47672u,
                   .l1_misses = 46536u, .l2_accesses = 69778u,
                   .l2_hits = 52627u, .l2_misses = 17151u,
                   .invalidations = 4740u, .snoop_transactions = 4799u,
                   .writebacks = 3891u, .memory_fetches = 12352u,
                   .memory_fetches_local = 12352u, .memory_fetches_remote = 0u,
                   .intra_socket_messages = 20885u,
                   .inter_socket_messages = 39838u,
                   .execution_cycles = 416907u,
                   .detection_overhead_cycles = 40000u,
                   .detector_searches = 0u};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(detector.matrix().total(), 330u);
}

// 256 threads on the manycore preset: the heap holds hundreds of entries
// and every pick is a real sift, the regime the single heap was built for.
TEST(SchedulerPinned, ManycoreSp256MatchesRecordedStats) {
  WorkloadParams params = small_params(256);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("SP", params);
  const MachineConfig config = MachineConfig::manycore();
  const Mapping mapping =
      random_mapping(256, config.num_cores(), /*seed=*/71);
  const MachineStats got = run_app(config, *workload, mapping,
                                   /*fast_hierarchy=*/true, /*seed=*/23);

  const MachineStats expected =
      MachineStats{.accesses = 1047552u, .reads = 785408u, .writes = 262144u,
                   .tlb_hits = 1041926u, .tlb_misses = 5626u,
                   .l1_hits = 490624u, .l1_misses = 556928u,
                   .l2_accesses = 819072u, .l2_hits = 262144u,
                   .l2_misses = 556928u, .invalidations = 16037u,
                   .snoop_transactions = 32401u, .writebacks = 229376u,
                   .memory_fetches = 524527u, .memory_fetches_local = 508591u,
                   .memory_fetches_remote = 15936u,
                   .intra_socket_messages = 3899648u,
                   .inter_socket_messages = 138165430u,
                   .execution_cycles = 395787u,
                   .detection_overhead_cycles = 0u, .detector_searches = 0u};
  EXPECT_EQ(got, expected);
}

// Manycore parity: the same contract far past the 64-L2 inline holder word.
// 128 L2s (16x8, fully connected sockets) and 256 L2s (the mesh-priced
// manycore() preset, 32x8 with per-hop extras) must produce bit-identical
// stats with the multi-word directory and the walked broadcast. This is the
// regression test for the old single-word directory's silent fallback.
TEST(ManycoreDifferential, DirectoryMatchesBroadcastPast64L2s) {
  MachineConfig l2_128;
  l2_128.num_sockets = 16;
  l2_128.cores_per_socket = 8;
  l2_128.cores_per_l2 = 1;
  l2_128.l1 = CacheConfig{1024, 64, 2, 2};
  l2_128.l2 = CacheConfig{4096, 64, 4, 8};

  struct Case {
    const char* name;
    MachineConfig machine;
  };
  const Case cases[] = {{"128_flat", l2_128},
                        {"256_mesh", MachineConfig::manycore()}};
  for (const Case& c : cases) {
    WorkloadParams params = small_params(32);
    params.size_scale = 0.25;
    params.iter_scale = 0.1;
    const auto workload = make_npb_workload("SP", params);
    MachineConfig directory_config = c.machine;
    directory_config.coherence_broadcast = false;
    MachineConfig broadcast_config = c.machine;
    broadcast_config.coherence_broadcast = true;
    const Mapping mapping = random_mapping(
        workload->num_threads(), c.machine.num_cores(), /*seed=*/71);

    const MachineStats with_directory =
        run_app(directory_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/23);
    const MachineStats with_broadcast =
        run_app(broadcast_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/23);
    EXPECT_TRUE(with_directory == with_broadcast)
        << c.name << ": directory and broadcast stats differ (cycles "
        << with_directory.execution_cycles << " vs "
        << with_broadcast.execution_cycles << ", invalidations "
        << with_directory.invalidations << " vs "
        << with_broadcast.invalidations << ", messages "
        << with_directory.intra_socket_messages << "+"
        << with_directory.inter_socket_messages << " vs "
        << with_broadcast.intra_socket_messages << "+"
        << with_broadcast.inter_socket_messages << ")";
  }
}

// The directory stays on and consistent on a 256-L2 machine after a real
// run — the exact scenario the 64-L2 cliff used to silently degrade.
TEST(ManycoreDifferential, DirectoryEnabledAndConsistentAt256L2s) {
  WorkloadParams params = small_params(64);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("CG", params);
  const MachineConfig config = MachineConfig::manycore();
  Machine machine(config);
  ASSERT_EQ(machine.topology().num_l2(), 256);
  ASSERT_TRUE(machine.hierarchy().coherence().directory_enabled());

  Machine::RunConfig run;
  run.thread_to_core = random_mapping(workload->num_threads(),
                                      config.num_cores(), /*seed=*/83);
  machine.run(streams_of(*workload, /*seed=*/29), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_TRUE(coherence.directory_consistent());
  EXPECT_GT(coherence.directory_lines(), 0u);
  EXPECT_GT(coherence.directory_stats().holder_hits, 0u);
}

// Ground truth for the directory itself: after an arbitrary run, the holder
// bitmasks must match the L2 contents exactly in both directions — no stale
// bits, no untracked lines. (The sanitize CI job runs this under
// ASan/UBSan.)
TEST(CoherenceDirectoryInvariant, MasksMatchCacheContentsAfterRuns) {
  for (const char* app : {"SP", "UA"}) {
    const auto workload = make_npb_workload(app, small_params());
    const MachineConfig config = MachineConfig::harpertown();
    Machine machine(config);
    ASSERT_TRUE(machine.hierarchy().coherence().directory_enabled());

    Machine::RunConfig run;
    run.thread_to_core = random_mapping(workload->num_threads(),
                                        config.num_cores(), /*seed=*/41);
    machine.run(streams_of(*workload, /*seed=*/13), run);

    const CoherenceDomain& coherence = machine.hierarchy().coherence();
    EXPECT_TRUE(coherence.directory_consistent()) << app;
    EXPECT_GT(coherence.directory_lines(), 0u) << app;
    EXPECT_GT(coherence.directory_stats().probes, 0u) << app;
    EXPECT_GE(coherence.directory_stats().probes,
              coherence.directory_stats().holder_hits)
        << app;

    // flush_caches drops every line; the directory must empty with them.
    machine.hierarchy().flush_caches();
    EXPECT_EQ(coherence.directory_lines(), 0u) << app;
    EXPECT_TRUE(coherence.directory_consistent()) << app;
  }
}

// Opting out via MachineConfig::coherence_broadcast leaves the directory
// dark: no entries, no stats, consistency trivially true.
TEST(CoherenceDirectoryInvariant, BroadcastModeKeepsDirectoryEmpty) {
  const auto workload = make_npb_workload("CG", small_params());
  MachineConfig config = MachineConfig::harpertown();
  config.coherence_broadcast = true;
  Machine machine(config);
  EXPECT_FALSE(machine.hierarchy().coherence().directory_enabled());

  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  machine.run(streams_of(*workload, /*seed=*/19), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_EQ(coherence.directory_lines(), 0u);
  EXPECT_EQ(coherence.directory_stats().probes, 0u);
  EXPECT_TRUE(coherence.directory_consistent());
}

}  // namespace
}  // namespace tlbmap
