// Cross-cutting property tests: structural counter invariants that must
// hold for every workload under every mapping, on more than one machine
// shape — including a 16-core machine twice the paper's size.
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/dynamic.hpp"
#include "core/fault.hpp"
#include "core/pipeline.hpp"
#include "detect/hm_detector.hpp"
#include "detect/phase_detector.hpp"
#include "detect/stream_detector.hpp"
#include "mapping/decision_cache.hpp"
#include "mapping/hierarchical.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"
#include "svc/service.hpp"

namespace tlbmap {
namespace {

WorkloadParams tiny_params(int threads = 8) {
  WorkloadParams p;
  p.num_threads = threads;
  p.size_scale = 0.5;
  p.iter_scale = 0.25;
  return p;
}

void check_invariants(const MachineStats& s, const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(s.reads + s.writes, s.accesses);
  EXPECT_EQ(s.tlb_hits + s.tlb_misses, s.accesses);
  EXPECT_EQ(s.l1_hits + s.l1_misses, s.accesses);
  EXPECT_EQ(s.l2_hits + s.l2_misses, s.l2_accesses);
  // Every write reaches the L2 (write-through); reads reach it on L1 miss.
  EXPECT_GE(s.l2_accesses, s.writes);
  EXPECT_LE(s.l2_accesses, s.accesses);
  // Data sources are mutually exclusive per L2 miss.
  EXPECT_LE(s.memory_fetches + s.snoop_transactions, s.l2_misses + s.writes);
  // Snoops and invalidations require writes somewhere in the system.
  if (s.writes == 0) {
    EXPECT_EQ(s.invalidations, 0u);
  }
  // Time moves if anything happened.
  if (s.accesses > 0) {
    EXPECT_GT(s.execution_cycles, 0u);
  }
}

class PerAppInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(PerAppInvariants, CountersConsistentUnderAllMappings) {
  const auto workload = make_npb_workload(GetParam(), tiny_params());
  Pipeline pipe(MachineConfig::harpertown());
  const Topology& topo = pipe.topology();
  for (const Mapping& mapping :
       {identity_mapping(8), random_mapping(8, 8, 17),
        round_robin_mapping(topo, 8)}) {
    const MachineStats s = pipe.evaluate(*workload, mapping, 5);
    check_invariants(s, GetParam() + " / " + to_string(mapping));
    EXPECT_GT(s.accesses, 0u);
  }
}

TEST_P(PerAppInvariants, DetectedMatrixWithinOracleSupport) {
  // SM can only count page matches that genuinely exist, so any pair it
  // reports must also appear in the (windowless) oracle matrix.
  const auto workload = make_npb_workload(GetParam(), tiny_params());
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 3;
  pipe.oracle_config().window = 0;  // unlimited
  const auto sm =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged, 2);
  const auto oracle = pipe.detect(*workload, Pipeline::Mechanism::kOracle, 2);
  for (ThreadId a = 0; a < 8; ++a) {
    for (ThreadId b = a + 1; b < 8; ++b) {
      if (sm.matrix.at(a, b) > 0) {
        EXPECT_GT(oracle.matrix.at(a, b), 0u)
            << GetParam() << " pair " << a << "," << b;
      }
    }
  }
}

TEST_P(PerAppInvariants, EvaluationDeterministicPerSeed) {
  const auto workload = make_npb_workload(GetParam(), tiny_params());
  Pipeline pipe(MachineConfig::harpertown());
  const Mapping m = identity_mapping(8);
  const MachineStats s1 = pipe.evaluate(*workload, m, 9);
  const MachineStats s2 = pipe.evaluate(*workload, m, 9);
  EXPECT_EQ(s1.execution_cycles, s2.execution_cycles);
  EXPECT_EQ(s1.invalidations, s2.invalidations);
  EXPECT_EQ(s1.snoop_transactions, s2.snoop_transactions);
  EXPECT_EQ(s1.l2_misses, s2.l2_misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, PerAppInvariants,
    ::testing::Values("BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP", "UA"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------- bigger machines

MachineConfig sixteen_core() {
  MachineConfig c;
  c.num_sockets = 4;
  c.cores_per_socket = 4;
  c.cores_per_l2 = 2;
  return c;
}

TEST(BigMachine, SixteenThreadPipelineEndToEnd) {
  const MachineConfig machine = sixteen_core();
  Pipeline pipe(machine);
  pipe.sm_config().sample_threshold = 3;
  const auto workload = make_npb_workload("SP", tiny_params(16));
  const auto det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  const Mapping mapping = pipe.map(det.matrix);
  EXPECT_TRUE(is_valid_mapping(mapping, 16));
  const MachineStats tuned = pipe.evaluate(*workload, mapping, 3);
  check_invariants(tuned, "16-core SP");
  // The detected mapping should not lose to the worst random placement.
  Cycles worst = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    worst = std::max(
        worst, pipe.evaluate(*workload, random_mapping(16, 16, seed), 3)
                   .execution_cycles);
  }
  EXPECT_LE(tuned.execution_cycles, worst);
}

TEST(BigMachine, HierarchicalMapperOnSixteen) {
  const Topology topo(sixteen_core());
  HierarchicalMapper mapper(topo);
  CommMatrix comm(16);
  for (int t = 0; t < 16; t += 2) comm.add(t, t + 1, 1000);
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, 16));
  for (int t = 0; t < 16; t += 2) {
    EXPECT_TRUE(topo.share_l2(m[static_cast<std::size_t>(t)],
                              m[static_cast<std::size_t>(t + 1)]))
        << t;
  }
}

TEST(BigMachine, QuadCorePerL2Machine) {
  MachineConfig c;
  c.num_sockets = 2;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 4;
  const Topology topo(c);
  HierarchicalMapper mapper(topo);
  CommMatrix comm(16);
  // Quads {0..3}, {4..7}, ... strongly coupled.
  for (int q = 0; q < 16; q += 4) {
    for (int a = q; a < q + 4; ++a) {
      for (int b = a + 1; b < q + 4; ++b) comm.add(a, b, 500);
    }
  }
  const Mapping m = mapper.map(comm);
  EXPECT_TRUE(is_valid_mapping(m, 16));
  for (int q = 0; q < 16; q += 4) {
    for (int a = q; a < q + 4; ++a) {
      EXPECT_TRUE(topo.share_l2(m[static_cast<std::size_t>(q)],
                                m[static_cast<std::size_t>(a)]))
          << "quad " << q << " member " << a;
    }
  }
}

TEST(BigMachine, FewerThreadsThanCoresEndToEnd) {
  Pipeline pipe(MachineConfig::harpertown());
  pipe.sm_config().sample_threshold = 3;
  const auto workload = make_npb_workload("BT", tiny_params(4));
  const auto det =
      pipe.detect(*workload, Pipeline::Mechanism::kSoftwareManaged);
  const Mapping mapping = pipe.map(det.matrix);
  EXPECT_EQ(mapping.size(), 4u);
  EXPECT_TRUE(is_valid_mapping(mapping, 8));
  check_invariants(pipe.evaluate(*workload, mapping, 3), "4-thread BT");
}

// ------------------------------------------------------ config validation

/// One boundary case: a config on one side of an edge of what its
/// validate() accepts.
struct ValidationCase {
  std::string name;
  std::function<void()> validate;
  bool accepted;
};

template <typename Config, typename Edit>
ValidationCase edited(std::string name, Config config, Edit edit,
                      bool accepted) {
  edit(config);
  return {std::move(name), [config] { config.validate(); }, accepted};
}

// Every *Config::validate() at the edges of its accepted range: each
// rejection throws std::invalid_argument, and the value just inside the
// edge passes.
TEST(ConfigValidation, AcceptsAndRejectsAtEachBoundary) {
  using svc::ServiceConfig;
  const CacheConfig l1 = MachineConfig{}.l1;
  const double nan = std::nan("");
  const ValidationCase cases[] = {
      edited("cache: paper L1", l1, [](CacheConfig&) {}, true),
      edited("cache: zero size", l1, [](CacheConfig& c) { c.size_bytes = 0; },
             false),
      edited("cache: zero ways", l1, [](CacheConfig& c) { c.ways = 0; }, false),
      edited("cache: sets not divisible", l1,
             [](CacheConfig& c) { c.ways = 3; }, false),
      edited("cache: line not a power of two", l1,
             [](CacheConfig& c) {
               c.line_size = 96;
               c.size_bytes = 96 * 128;
             },
             false),
      edited("tlb: one set, fully associative", TlbConfig{},
             [](TlbConfig& c) { c.ways = c.entries; }, true),
      edited("tlb: zero entries", TlbConfig{},
             [](TlbConfig& c) { c.entries = 0; }, false),
      edited("tlb: entries not divisible by ways", TlbConfig{},
             [](TlbConfig& c) { c.ways = 3; }, false),
      edited("machine: harpertown", MachineConfig{}, [](MachineConfig&) {},
             true),
      edited("machine: manycore", MachineConfig::manycore(),
             [](MachineConfig&) {}, true),
      edited("machine: zero sockets", MachineConfig{},
             [](MachineConfig& c) { c.num_sockets = 0; }, false),
      // The directory's 16-bit holder lanes reserve 0xFFFE and 0xFFFF.
      edited("machine: 0xFFFD L2s", MachineConfig{},
             [](MachineConfig& c) {
               c.num_sockets = MachineConfig::kMaxL2s - 1;
               c.cores_per_socket = c.cores_per_l2 = 1;
             },
             true),
      edited("machine: 0xFFFE L2s", MachineConfig{},
             [](MachineConfig& c) {
               c.num_sockets = MachineConfig::kMaxL2s;
               c.cores_per_socket = c.cores_per_l2 = 1;
             },
             false),
      edited("machine: core count at INT_MAX", MachineConfig{},
             [](MachineConfig& c) {
               c.num_sockets = 1;
               c.cores_per_socket = c.cores_per_l2 =
                   std::numeric_limits<int>::max();
             },
             true),
      edited("machine: sockets x cores overflows int", MachineConfig{},
             [](MachineConfig& c) {
               c.num_sockets = 2;
               c.cores_per_socket = c.cores_per_l2 =
                   std::numeric_limits<int>::max();
             },
             false),
      edited("machine: cores not divisible by l2 share", MachineConfig{},
             [](MachineConfig& c) { c.cores_per_l2 = 3; }, false),
      edited("machine: negative mesh columns", MachineConfig{},
             [](MachineConfig& c) { c.socket_mesh_cols = -1; }, false),
      edited("machine: sockets not divisible by mesh columns",
             MachineConfig{}, [](MachineConfig& c) { c.socket_mesh_cols = 3; },
             false),
      edited("machine: page size not a power of two", MachineConfig{},
             [](MachineConfig& c) { c.page_size = 3000; }, false),
      edited("machine: both levels at 128-byte lines", MachineConfig{},
             [](MachineConfig& c) {
               c.l1.line_size = 128;
               c.l2.line_size = 128;
             },
             true),
      edited("machine: l2 line wider than l1 line", MachineConfig{},
             [](MachineConfig& c) { c.l2.line_size = 128; }, false),
      // The L2 would otherwise be indexed by L1-sized lines.
      {"machine: built on mismatched line sizes",
       [] {
         MachineConfig c;
         c.l2.line_size = 128;
         const Machine machine(c);
       },
       false},
      edited("machine: bad l2 geometry", MachineConfig{},
             [](MachineConfig& c) { c.l2.ways = 0; }, false),
      edited("machine: bad tlb geometry", MachineConfig{},
             [](MachineConfig& c) { c.tlb.ways = 0; }, false),
      edited("machine: fault rate above one", MachineConfig{},
             [](MachineConfig& c) { c.fault.drop_sample_rate = 1.5; }, false),
      edited("hm: cost one below interval", HmDetectorConfig{},
             [](HmDetectorConfig& c) { c.search_cost = c.interval - 1; }, true),
      edited("hm: cost equal to interval", HmDetectorConfig{},
             [](HmDetectorConfig& c) { c.search_cost = c.interval; }, false),
      edited("hm: zero interval", HmDetectorConfig{},
             [](HmDetectorConfig& c) {
               c.interval = 0;
               c.search_cost = 0;
             },
             false),
      edited("stream: one-page window, sweep every event",
             StreamDetectorConfig{},
             [](StreamDetectorConfig& c) {
               c.window_pages = 1;
               c.sweep_every = 1;
             },
             true),
      edited("stream: empty window", StreamDetectorConfig{},
             [](StreamDetectorConfig& c) { c.window_pages = 0; }, false),
      edited("stream: never sweeps", StreamDetectorConfig{},
             [](StreamDetectorConfig& c) { c.sweep_every = 0; }, false),
      edited("phase: thresholds at their edges", PhaseDetectorConfig{},
             [](PhaseDetectorConfig& c) {
               c.drift_threshold = 1.0;
               c.miss_rate_delta = 0.0;
             },
             true),
      edited("phase: drift above one", PhaseDetectorConfig{},
             [](PhaseDetectorConfig& c) { c.drift_threshold = 1.01; }, false),
      edited("phase: drift NaN", PhaseDetectorConfig{},
             [nan](PhaseDetectorConfig& c) { c.drift_threshold = nan; }, false),
      edited("phase: negative miss-rate delta", PhaseDetectorConfig{},
             [](PhaseDetectorConfig& c) { c.miss_rate_delta = -0.1; }, false),
      edited("decision cache: drift zero", DecisionCacheConfig{},
             [](DecisionCacheConfig& c) { c.drift_threshold = 0.0; }, true),
      edited("decision cache: negative drift", DecisionCacheConfig{},
             [](DecisionCacheConfig& c) { c.drift_threshold = -0.01; }, false),
      edited("online: every knob at its edge", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) {
               c.remap_every_barriers = 0;
               c.decay = 1.0;
               c.improvement_threshold = 0.0;
               c.migration_cooldown = 0;
               c.canary_barriers = 0;
               c.regression_threshold = 0.0;
             },
             true),
      edited("online: negative remap cadence", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.remap_every_barriers = -1; }, false),
      edited("online: zero decay", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.decay = 0.0; }, false),
      edited("online: improvement threshold of one", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.improvement_threshold = 1.0; },
             false),
      edited("online: negative cooldown", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.migration_cooldown = -1; }, false),
      edited("online: negative canary window", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.canary_barriers = -1; }, false),
      edited("online: negative regression threshold", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.regression_threshold = -0.1; },
             false),
      edited("online: bad phase detector", OnlineMapperConfig{},
             [](OnlineMapperConfig& c) { c.phase.drift_threshold = 2.0; },
             false),
      edited("fault: every rate at one", FaultPlan{},
             [](FaultPlan& p) {
               p.drop_sample_rate = p.corrupt_sample_rate = 1.0;
               p.detect_fail_rate = p.sweep_skip_rate = 1.0;
               p.sweep_fail_rate = p.matrix_flip_rate = 1.0;
               p.matrix_zero_rate = 1.0;
             },
             true),
      edited("fault: negative rate", FaultPlan{},
             [](FaultPlan& p) { p.matrix_zero_rate = -0.01; }, false),
      edited("fault: NaN rate", FaultPlan{},
             [nan](FaultPlan& p) { p.sweep_fail_rate = nan; }, false),
      edited("service: budgets exactly one queue", ServiceConfig{},
             [](ServiceConfig& c) {
               c.max_sessions = 1;
               c.session.budget_bytes = c.session.queue_bytes;
               c.total_budget_bytes = c.session.budget_bytes;
             },
             true),
      edited("service: no sessions", ServiceConfig{},
             [](ServiceConfig& c) { c.max_sessions = 0; }, false),
      edited("service: empty queue", ServiceConfig{},
             [](ServiceConfig& c) { c.session.queue_bytes = 0; }, false),
      edited("service: zero deadline", ServiceConfig{},
             [](ServiceConfig& c) { c.session.deadline_events = 0; }, false),
      edited("service: session budget below its queue", ServiceConfig{},
             [](ServiceConfig& c) {
               c.session.budget_bytes = c.session.queue_bytes - 1;
             },
             false),
      edited("service: total budget below one session", ServiceConfig{},
             [](ServiceConfig& c) {
               c.total_budget_bytes = c.session.budget_bytes - 1;
             },
             false),
      edited("service: bad machine", ServiceConfig{},
             [](ServiceConfig& c) { c.machine.l2.line_size = 32; }, false),
      edited("service: bad detector", ServiceConfig{},
             [](ServiceConfig& c) { c.detector.window_pages = 0; }, false),
      edited("service: bad decision cache", ServiceConfig{},
             [](ServiceConfig& c) { c.cache.drift_threshold = 1.5; }, false),
  };
  for (const ValidationCase& c : cases) {
    if (c.accepted) {
      EXPECT_NO_THROW(c.validate()) << c.name;
    } else {
      EXPECT_THROW(c.validate(), std::invalid_argument) << c.name;
    }
  }
}

}  // namespace
}  // namespace tlbmap
