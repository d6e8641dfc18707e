// Differential tests and pinned results for the simulator's engine fast
// paths. The memory hierarchy (translation memo, L2-hit-only sibling
// shootdown, line-occupancy coherence directory, tag-scan lookups) is run
// access by access against ReferenceHierarchy (reference_coherence.hpp),
// which has none of those shortcuts, over every NPB app on UMA, NUMA and
// manycore machines, with migrations and cache flushes mid-run. Whole
// Machine runs are held to MachineStats recorded from the reference
// engines: the scheduler's picks, and the scenarios that used to be A/B'd
// against engine switches in the library. The directory is also held to
// its ground truth: after arbitrary runs, every directory bit must agree
// with the actual L2 contents.
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "detect/hm_detector.hpp"
#include "mapping/mapping.hpp"
#include "npb/workload.hpp"
#include "reference_coherence.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine.hpp"

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

/// One full run at the Machine level.
MachineStats run_app(const MachineConfig& machine_config,
                     const Workload& workload, const Mapping& mapping,
                     std::uint64_t seed) {
  Machine machine(machine_config);
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  return machine.run(streams_of(workload, seed), run);
}

/// 128 single-core L2s on 16 fully connected sockets.
MachineConfig flat_128_config() {
  MachineConfig c;
  c.num_sockets = 16;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 1;
  c.l1 = CacheConfig{1024, 64, 2, 2};
  c.l2 = CacheConfig{4096, 64, 4, 8};
  return c;
}

/// The manycore scale the tests run: 32 threads, quarter-size data, a
/// tenth of the iterations.
WorkloadParams manycore_params() {
  WorkloadParams p = small_params(32);
  p.size_scale = 0.25;
  p.iter_scale = 0.1;
  return p;
}

/// Every MachineStats counter with its name, in declaration order.
std::vector<std::pair<const char*, std::uint64_t>> stats_fields(
    const MachineStats& s) {
  static_assert(sizeof(MachineStats) == 21 * sizeof(std::uint64_t),
                "a MachineStats field was added: list it here too");
  return {{"accesses", s.accesses},
          {"reads", s.reads},
          {"writes", s.writes},
          {"tlb_hits", s.tlb_hits},
          {"tlb_misses", s.tlb_misses},
          {"l1_hits", s.l1_hits},
          {"l1_misses", s.l1_misses},
          {"l2_accesses", s.l2_accesses},
          {"l2_hits", s.l2_hits},
          {"l2_misses", s.l2_misses},
          {"invalidations", s.invalidations},
          {"snoop_transactions", s.snoop_transactions},
          {"writebacks", s.writebacks},
          {"memory_fetches", s.memory_fetches},
          {"memory_fetches_local", s.memory_fetches_local},
          {"memory_fetches_remote", s.memory_fetches_remote},
          {"intra_socket_messages", s.intra_socket_messages},
          {"inter_socket_messages", s.inter_socket_messages},
          {"execution_cycles", s.execution_cycles},
          {"detection_overhead_cycles", s.detection_overhead_cycles},
          {"detector_searches", s.detector_searches}};
}

/// FNV-1a over every counter's eight little-endian bytes.
std::uint64_t stats_hash(const MachineStats& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : stats_fields(s)) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string describe(const MachineStats& s) {
  std::ostringstream out;
  for (const auto& [name, value] : stats_fields(s)) {
    out << name << "=" << value << " ";
  }
  return out.str();
}

// ------------------------------------------ hierarchy vs reference model

struct HierarchyCase {
  const char* name;
  MachineConfig machine;
  WorkloadParams params;
};

void PrintTo(const HierarchyCase& c, std::ostream* os) { *os << c.name; }

class HierarchyReferenceDifferential
    : public ::testing::TestWithParam<HierarchyCase> {};

// Every NPB app's streams, drained round-robin (one event per thread in
// turn, barriers skipped) through a random placement that is redrawn every
// few thousand events, with one flush_caches() halfway. Each access must
// return the same AccessInfo from both hierarchies, and the runs must end
// with the same MachineStats.
TEST_P(HierarchyReferenceDifferential, MatchesReferencePerAccess) {
  constexpr std::uint64_t kMigrateEvery = 3000;
  const HierarchyCase& c = GetParam();
  for (const std::string& app : npb_workload_names()) {
    const auto workload = make_npb_workload(app, c.params);
    const int threads = workload->num_threads();
    std::uint64_t total = 0;
    for (ThreadId t = 0; t < threads; ++t) total += workload->accesses_of(t);

    MemoryHierarchy fast(c.machine);
    ReferenceHierarchy reference(c.machine);
    MachineStats fast_stats, reference_stats;
    auto streams = streams_of(*workload, /*seed=*/5);
    std::vector<bool> ended(static_cast<std::size_t>(threads), false);
    Mapping placement =
        random_mapping(threads, c.machine.num_cores(), /*seed=*/61);
    std::uint64_t events = 0;
    for (int live = threads; live > 0;) {
      for (ThreadId t = 0; t < threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        if (ended[ti]) continue;
        const TraceEvent event = streams[ti]->next();
        if (event.kind == TraceEvent::Kind::kEnd) {
          ended[ti] = true;
          --live;
        }
        if (event.kind != TraceEvent::Kind::kAccess) continue;
        const CoreId core = placement[ti];
        const MemAccess& a = event.access;
        const auto got = fast.access(core, a.addr, a.type, fast_stats);
        const auto want =
            reference.access(core, a.addr, a.type, reference_stats);
        ASSERT_EQ(got.latency, want.latency)
            << c.name << "/" << app << " event " << events;
        ASSERT_EQ(got.tlb_miss, want.tlb_miss)
            << c.name << "/" << app << " event " << events;
        ASSERT_EQ(got.page, want.page)
            << c.name << "/" << app << " event " << events;
        ++events;
        if (events % kMigrateEvery == 0) {
          placement = random_mapping(threads, c.machine.num_cores(), events);
        }
        if (events == total / 2) {
          fast.flush_caches();
          reference.flush_caches();
        }
      }
    }
    ASSERT_EQ(events, total) << c.name << "/" << app;
    EXPECT_TRUE(fast_stats == reference_stats)
        << c.name << "/" << app << "\n fast:      " << describe(fast_stats)
        << "\n reference: " << describe(reference_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, HierarchyReferenceDifferential,
    ::testing::Values(
        HierarchyCase{"uma", machine_variant("uma"), small_params()},
        HierarchyCase{"numa_first_touch", machine_variant("numa_first_touch"),
                      small_params()},
        HierarchyCase{"numa_interleave", machine_variant("numa_interleave"),
                      small_params()},
        HierarchyCase{"flat_128", flat_128_config(), manycore_params()},
        HierarchyCase{"mesh_256", MachineConfig::manycore(),
                      manycore_params()}),
    [](const ::testing::TestParamInfo<HierarchyCase>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------- pinned results

// Whole Machine runs recorded when the library could still switch every
// engine shortcut off: each MachineStats below was produced identically by
// the fast engines and by the broadcast coherence walk, the scalar tag
// scans and the memo-free hierarchy together. Each scenario is pinned as a
// hash over every counter; a mismatch prints the full struct.
TEST(RetiredDifferentialPinned, ScenariosMatchRecordedStats) {
  struct Pin {
    std::string scenario;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"SP/uma/identity", 0x868a4cd66b8c6e6aull},
      {"SP/uma/random", 0x3ef29b4c5f162418ull},
      {"CG/uma/identity", 0xc829ef683a5582eaull},
      {"CG/uma/random", 0x125bd259cf6783b4ull},
      {"UA/uma/identity", 0x35877ea7062b3226ull},
      {"UA/uma/random", 0x5aa058f5c10bde15ull},
      {"FT/numa_first_touch/identity", 0x41b8bb304393b168ull},
      {"FT/numa_first_touch/random", 0x41b8bb304393b168ull},
      {"MG/numa_first_touch/identity", 0xb146c20e7fd4ae93ull},
      {"MG/numa_first_touch/random", 0xa46980a5b11f0279ull},
      {"SP/numa_interleave/identity", 0xaec33212ed16021dull},
      {"SP/numa_interleave/random", 0xf84ddd3e7443b962ull},
      {"LU/numa_interleave/identity", 0xdfc611d0fd5dbce9ull},
      {"LU/numa_interleave/random", 0xed3003c298136ddaull},
      {"SP/dynamic", 0x6f6286f3138b9341ull},
      {"SP/128_flat", 0x4cc7df8c8cb58aecull},
      {"SP/256_mesh", 0xb70109d2d7d5ef50ull},
  };
  std::vector<std::pair<std::string, MachineStats>> runs;

  // Seven app/machine pairs, each on the identity and a random placement.
  const std::pair<const char*, const char*> apps[] = {
      {"SP", "uma"},
      {"CG", "uma"},
      {"UA", "uma"},
      {"FT", "numa_first_touch"},
      {"MG", "numa_first_touch"},
      {"SP", "numa_interleave"},
      {"LU", "numa_interleave"}};
  for (const auto& [app, variant] : apps) {
    const auto workload = make_npb_workload(app, small_params());
    const MachineConfig config = machine_variant(variant);
    const std::string prefix = std::string(app) + "/" + variant + "/";
    runs.emplace_back(prefix + "identity",
                      run_app(config, *workload,
                              identity_mapping(workload->num_threads()),
                              /*seed=*/5));
    runs.emplace_back(
        prefix + "random",
        run_app(config, *workload,
                random_mapping(workload->num_threads(), config.num_cores(),
                               /*seed=*/97),
                /*seed=*/5));
  }

  // A dynamic run with the CLI-default online mapper: it migrates threads
  // at a barrier, the canary measures the move as a regression and rolls it
  // back, so caches cool behind moving threads twice. Full-size SP at half
  // the iterations; at smaller scales the mapper never decides to move.
  {
    WorkloadParams params = small_params();
    params.size_scale = 1.0;
    params.iter_scale = 0.5;
    const auto workload = make_npb_workload("SP", params);
    const MachineConfig config = MachineConfig::harpertown();
    const Mapping initial = random_mapping(workload->num_threads(),
                                           config.num_cores(), /*seed=*/123);
    Pipeline pipe(config);
    const auto dynamic = pipe.evaluate_dynamic(
        *workload, initial, OnlineMapperConfig{}, /*seed=*/9);
    runs.emplace_back("SP/dynamic", dynamic.stats);
    EXPECT_GE(dynamic.migrations, 1);  // a pin that migrates nothing is vacuous
    EXPECT_EQ(dynamic.remap_decisions, 2);
    EXPECT_EQ(dynamic.rollbacks, 1);
    EXPECT_EQ(dynamic.final_mapping, initial);
  }

  // Past 64 L2s: 128 flat and the 256-L2 mesh.
  const std::pair<const char*, MachineConfig> manycore[] = {
      {"SP/128_flat", flat_128_config()},
      {"SP/256_mesh", MachineConfig::manycore()}};
  for (const auto& [name, config] : manycore) {
    const auto workload = make_npb_workload("SP", manycore_params());
    runs.emplace_back(
        name, run_app(config, *workload,
                      random_mapping(workload->num_threads(),
                                     config.num_cores(), /*seed=*/71),
                      /*seed=*/23));
  }

  ASSERT_EQ(runs.size(), std::size(pins));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [scenario, stats] = runs[i];
    ASSERT_EQ(scenario, pins[i].scenario);
    EXPECT_EQ(stats_hash(stats), pins[i].hash)
        << scenario << ": " << describe(stats);
  }
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
    const MachineStats got =
        run_app(config, *workload, mapping, /*seed=*/3);
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
  WorkloadParams params = manycore_params();
  params.num_threads = 256;
  const auto workload = make_npb_workload("SP", params);
  const MachineConfig config = MachineConfig::manycore();
  const Mapping mapping =
      random_mapping(256, config.num_cores(), /*seed=*/71);
  const MachineStats got = run_app(config, *workload, mapping, /*seed=*/23);

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

// The directory stays consistent on a 256-L2 machine after a real run,
// with pooled holder rows four words wide, and the run publishes its
// directory bookkeeping as per-run metrics.
TEST(ManycoreDifferential, DirectoryEnabledAndConsistentAt256L2s) {
  WorkloadParams params = manycore_params();
  params.num_threads = 64;
  const auto workload = make_npb_workload("CG", params);
  const MachineConfig config = MachineConfig::manycore();
  Machine machine(config);
  ASSERT_EQ(machine.topology().num_l2(), 256);

  Machine::RunConfig run;
  run.thread_to_core = random_mapping(workload->num_threads(),
                                      config.num_cores(), /*seed=*/83);
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  run.obs = &ctx;
  machine.run(streams_of(*workload, /*seed=*/29), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_TRUE(coherence.directory_consistent());
  EXPECT_GT(coherence.directory_lines(), 0u);
  const CoherenceDomain::DirectoryStats& dir = coherence.directory_stats();
  EXPECT_GT(dir.holder_hits, 0u);
  EXPECT_GT(dir.pooled_rows, 0u);  // CG's shared vector has many readers
  EXPECT_EQ(ctx.metrics.counter_value("coherence.directory_probes"),
            dir.probes);
  EXPECT_EQ(ctx.metrics.counter_value("coherence.directory_pooled_rows"),
            dir.pooled_rows);
}

// Ground truth for the directory itself: after an arbitrary run, the holder
// cells must match the L2 contents exactly in both directions — no stale
// holders, no untracked lines. (The sanitize CI job runs this under
// ASan/UBSan.)
TEST(CoherenceDirectoryInvariant, MasksMatchCacheContentsAfterRuns) {
  for (const char* app : {"SP", "UA"}) {
    const auto workload = make_npb_workload(app, small_params());
    const MachineConfig config = MachineConfig::harpertown();
    Machine machine(config);

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

}  // namespace
}  // namespace tlbmap
