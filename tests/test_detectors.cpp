// Tests for the three communication detectors: software-managed TLB
// (sampled miss search), hardware-managed TLB (periodic all-pairs sweep)
// and the full-trace oracle.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "detect/hm_detector.hpp"
#include "detect/oracle_detector.hpp"
#include "detect/shared_pages.hpp"
#include "detect/sm_detector.hpp"
#include "npb/synthetic.hpp"
#include "sim/machine.hpp"
#include "vector_stream.hpp"

namespace tlbmap {
namespace {

TraceEvent read_at(VirtAddr addr, std::uint32_t gap = 0) {
  return TraceEvent::make_access(addr, AccessType::kRead, gap);
}

Machine::RunConfig run_with(MachineObserver* obs, int n) {
  Machine::RunConfig cfg;
  for (int t = 0; t < n; ++t) cfg.thread_to_core.push_back(t);
  cfg.observer = obs;
  return cfg;
}

constexpr VirtAddr kPage = 4096;

// ---------------------------------------------------------------------- SM

TEST(SmDetector, DetectsSharedPageOnMiss) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2, SmDetectorConfig{/*sample_threshold=*/1, 231});
  // Thread 0 burns time on a private page first; thread 1 touches page 5
  // meanwhile (enters its TLB); thread 0 then misses on page 5 and the trap
  // handler finds the match.
  m.run(streams_of({
            {read_at(1 * kPage, 1000), read_at(5 * kPage)},  // thread 0
            {read_at(5 * kPage)},                            // thread 1
        }),
        run_with(&sm, 2));
  EXPECT_EQ(sm.matrix().at(0, 1), 1u);
}

TEST(SmDetector, NoMatchOnPrivatePages) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2, SmDetectorConfig{1, 231});
  m.run(streams_of({
            {read_at(1 * kPage), read_at(2 * kPage)},
            {read_at(7 * kPage), read_at(8 * kPage)},
        }),
        run_with(&sm, 2));
  EXPECT_EQ(sm.matrix().total(), 0u);
}

TEST(SmDetector, SamplingThresholdCountsSearches) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2, SmDetectorConfig{/*sample_threshold=*/3, 231});
  // 7 distinct pages -> 7 misses on thread 0 -> searches on miss 3 and 6.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 7; ++i) {
    events.push_back(read_at(static_cast<VirtAddr>(i) * kPage));
  }
  const MachineStats stats =
      m.run(streams_of({events, {}}), run_with(&sm, 2));
  EXPECT_EQ(stats.tlb_misses, 7u);
  EXPECT_EQ(sm.misses_seen(), 7u);
  EXPECT_EQ(sm.searches(), 2u);
}

TEST(SmDetector, HitsDoNotTrigger) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2, SmDetectorConfig{1, 231});
  m.run(streams_of({
            {read_at(0), read_at(0), read_at(0)},  // 1 miss + 2 hits
            {},
        }),
        run_with(&sm, 2));
  EXPECT_EQ(sm.misses_seen(), 1u);
  EXPECT_EQ(sm.searches(), 1u);
}

TEST(SmDetector, OverheadChargedPerSearch) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2, SmDetectorConfig{1, /*search_cost=*/500});
  const MachineStats stats = m.run(
      streams_of({{read_at(0), read_at(kPage)}, {}}), run_with(&sm, 2));
  EXPECT_EQ(sm.searches(), 2u);
  EXPECT_EQ(stats.detection_overhead_cycles, 1000u);
}

TEST(SmDetector, EvictedEntryNoLongerMatches) {
  MachineConfig cfg = MachineConfig::tiny();  // TLB: 8 entries, 2-way
  Machine m(cfg);
  SmDetector sm(m, 2, SmDetectorConfig{1, 231});
  // Thread 1 touches page 0, then floods its TLB set 0 with pages 4, 8
  // (2-way set: page 0 is evicted). Thread 0 then misses on page 0: no
  // match — the sharing is too old, exactly the paper's recency argument.
  m.run(streams_of({
            {read_at(16 * kPage, 2000), read_at(0)},
            {read_at(0), read_at(4 * kPage), read_at(8 * kPage)},
        }),
        run_with(&sm, 2));
  EXPECT_EQ(sm.matrix().at(0, 1), 0u);
}

TEST(SmDetector, NameAndReset) {
  Machine m(MachineConfig::tiny());
  SmDetector sm(m, 2);
  EXPECT_EQ(sm.name(), "SM");
  EXPECT_EQ(sm.config().sample_threshold, 100u);  // paper default
  EXPECT_EQ(sm.config().search_cost, 231u);       // paper-measured cost
}

// ---------------------------------------------------------------------- HM

TEST(HmDetector, SweepFindsMatchingEntries) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2, HmDetectorConfig{1'000'000, 84'297});
  // Prime both TLBs through a run without sweeps, then sweep manually.
  m.run(streams_of({
            {read_at(3 * kPage), read_at(10 * kPage)},
            {read_at(3 * kPage, 50), read_at(21 * kPage, 0)},
        }),
        run_with(&hm, 2));
  EXPECT_EQ(hm.matrix().total(), 0u);  // interval never elapsed
  hm.sweep();
  EXPECT_EQ(hm.matrix().at(0, 1), 1u);  // page 3 in both TLBs
}

TEST(HmDetector, SweepCountsAllSharedPages) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2);
  m.run(streams_of({
            {read_at(kPage), read_at(2 * kPage), read_at(3 * kPage)},
            {read_at(kPage, 50), read_at(2 * kPage, 0)},
        }),
        run_with(&hm, 2));
  hm.sweep();
  EXPECT_EQ(hm.matrix().at(0, 1), 2u);
}

TEST(HmDetector, IntervalGatesSweeps) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2, HmDetectorConfig{/*interval=*/500, /*cost=*/10});
  // Long stream with compute gaps: global time passes many intervals.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 40; ++i) {
    events.push_back(read_at(3 * kPage, 100));
  }
  const MachineStats stats =
      m.run(streams_of({events, {read_at(3 * kPage)}}), run_with(&hm, 2));
  EXPECT_GT(hm.searches(), 3u);
  EXPECT_EQ(stats.detection_overhead_cycles, hm.searches() * 10);
  EXPECT_GT(hm.matrix().at(0, 1), 0u);  // page 3 resident in both
}

TEST(HmDetector, AccessHookOnlyCountsMisses) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2, HmDetectorConfig{Cycles{1} << 60, 0});
  m.run(streams_of({{read_at(0), read_at(0), read_at(kPage)}, {}}),
        run_with(&hm, 2));
  EXPECT_EQ(hm.misses_seen(), 2u);
  EXPECT_EQ(hm.searches(), 0u);
}

TEST(HmDetector, SweepIsSymmetricOverPairs) {
  MachineConfig cfg;  // Harpertown: 8 cores
  Machine m(cfg);
  HmDetector hm(m, 8);
  // Fill TLBs directly: cores 2 and 5 share pages 40..44.
  for (PageNum p = 40; p < 45; ++p) {
    m.hierarchy().tlb(2).insert(p);
    m.hierarchy().tlb(5).insert(p);
  }
  // Run a trivial workload so thread placement is registered.
  std::vector<std::vector<TraceEvent>> events(8);
  Machine::RunConfig run = run_with(&hm, 8);
  run.flush_first = false;  // keep the primed TLB contents
  m.run(streams_of(std::move(events)), run);
  hm.sweep();
  EXPECT_EQ(hm.matrix().at(2, 5), 5u);
  EXPECT_EQ(hm.matrix().at(5, 2), 5u);
  EXPECT_EQ(hm.matrix().total(), 5u);  // no other pair shares anything
}

TEST(HmDetector, Name) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2);
  EXPECT_EQ(hm.name(), "HM");
  EXPECT_EQ(hm.config().interval, 10'000'000u);  // paper default
}

TEST(HmDetector, ValidateRejectsSweepStorm) {
  Machine m(MachineConfig::tiny());
  // A zero interval, or a sweep costing a whole interval or more, would
  // stall the machine on almost every access.
  EXPECT_THROW(HmDetector(m, 2, HmDetectorConfig{/*interval=*/0, /*cost=*/0}),
               std::invalid_argument);
  EXPECT_THROW(
      HmDetector(m, 2, HmDetectorConfig{/*interval=*/100, /*cost=*/100}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      HmDetector(m, 2, HmDetectorConfig{/*interval=*/100, /*cost=*/99}));
  EXPECT_NO_THROW(HmDetectorConfig{}.validate());  // the paper's 10M / 84,297
}

TEST(HmDetector, SweepCadenceDoesNotDrift) {
  Machine m(MachineConfig::tiny());
  HmDetector hm(m, 2, HmDetectorConfig{/*interval=*/100, /*cost=*/7});
  EXPECT_EQ(hm.on_tick(50), 0u);   // interval not yet elapsed
  EXPECT_EQ(hm.on_tick(250), 7u);  // sweeps; cadence advances to 200
  EXPECT_EQ(hm.on_tick(299), 0u);  // 99 cycles into the current interval
  // 300 is the next grid point. Snapping the last sweep to the tick time
  // (250) instead of the grid would push the next sweep to 350+ — under
  // sparse ticks that drift accumulates and the sweep rate sags below the
  // configured cadence.
  EXPECT_EQ(hm.on_tick(300), 7u);
  EXPECT_EQ(hm.searches(), 2u);
}

// ------------------------------------------ HM indexed sweep vs naive sweep

MachineConfig config_for_cores(int cores) {
  MachineConfig c = MachineConfig::harpertown();
  if (cores > c.num_cores()) {
    c.num_sockets = (cores + c.cores_per_socket - 1) / c.cores_per_socket;
  }
  return c;
}

/// Runs a ring workload with `threads` threads on cores 0..threads-1 so the
/// TLBs hold a realistic mix of shared and private pages and the placement
/// is registered.
void prime_ring(Machine& m, int threads) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.num_threads = threads;
  spec.private_pages = 32;
  spec.shared_pages = 8;
  spec.iterations = 2;
  const auto workload = make_synthetic(spec);
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < threads; ++t) {
    streams.push_back(workload->stream(t, 7));
  }
  m.run(std::move(streams), run_with(nullptr, threads));
}

/// The paper's literal HM sweep (Sec. IV-B): every pair of occupied cores'
/// TLBs, walked set by set, one add per page the two sets share —
/// Theta(P^2 * S * w^2).
void reference_pairwise_sweep(const Machine& m, CommMatrix& matrix) {
  const int cores = m.topology().num_cores();
  for (CoreId a = 0; a < cores; ++a) {
    const ThreadId ta = m.thread_on(a);
    if (ta == kNoThread) continue;
    for (CoreId b = a + 1; b < cores; ++b) {
      const ThreadId tb = m.thread_on(b);
      if (tb == kNoThread) continue;
      const Tlb& tlb_a = m.hierarchy().tlb(a);
      const Tlb& tlb_b = m.hierarchy().tlb(b);
      for (std::size_t set = 0; set < tlb_a.num_sets(); ++set) {
        for (const std::uint64_t page : tlb_a.set_tags(set)) {
          if (page == kInvalidTag) continue;
          for (const std::uint64_t other : tlb_b.set_tags(set)) {
            if (other == page) {
              matrix.add(ta, tb);
              break;
            }
          }
        }
      }
    }
  }
}

TEST(HmDetector, IndexedSweepMatchesNaiveBitForBit) {
  // 6: partially occupied topology (cores 6, 7 empty); 8: full Harpertown;
  // 36: multi-socket; 68: more than 64 occupied cores.
  for (const int threads : {6, 8, 36, 68}) {
    Machine m(config_for_cores(threads));
    prime_ring(m, threads);
    HmDetector indexed(m, threads, HmDetectorConfig{});
    CommMatrix naive(threads);
    // Two sweeps each: the second adds onto a non-empty matrix.
    for (int sweep = 0; sweep < 2; ++sweep) {
      reference_pairwise_sweep(m, naive);
      indexed.sweep();
    }
    ASSERT_GT(naive.total(), 0u) << "P=" << threads;
    for (ThreadId a = 0; a < threads; ++a) {
      for (ThreadId b = 0; b < threads; ++b) {
        ASSERT_EQ(indexed.matrix().at(a, b), naive.at(a, b))
            << "P=" << threads << " cell " << a << "," << b;
      }
    }
    EXPECT_EQ(indexed.matrix().max(), naive.max()) << "P=" << threads;
  }
}

TEST(HmDetector, PublishesIndexMetrics) {
  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  Machine m(config_for_cores(8));
  prime_ring(m, 8);
  HmDetector hm(m, 8);
  hm.set_observability(&ctx);
  hm.sweep();
  const obs::Labels labels = {{"mechanism", "HM"}};
  EXPECT_EQ(ctx.metrics.counter_value("detector.searches", labels), 1u);
  // The ring workload shares pages, so the index holds entries, some pages
  // have >= 2 sharers, and the sweep reports the pair matches it added.
  EXPECT_GT(ctx.metrics.counter_value("detector.index_entries", labels), 0u);
  EXPECT_GT(ctx.metrics.counter_value("detector.index_pages", labels), 0u);
  EXPECT_EQ(ctx.metrics.counter_value("detector.matches", labels),
            hm.matrix().total());
  EXPECT_EQ(ctx.metrics.histogram("detector.index_build_us", labels).count(),
            1u);
}

TEST(SharedPages, AddsOnePairCountPerSharerPair) {
  // Page 10: one holder; page 20: two; page 30: four — 0, 1 and 6 adds.
  const std::vector<std::pair<PageNum, ThreadId>> entries = {
      {10, 0}, {20, 1}, {20, 3}, {30, 0}, {30, 1}, {30, 2}, {30, 3}};
  CommMatrix matrix(4);
  const SharedPageCounts counts = add_shared_pages(entries, matrix);
  EXPECT_EQ(counts.pages, 2u);
  EXPECT_EQ(counts.matches, 7u);
  EXPECT_EQ(matrix.total(), counts.matches);
  EXPECT_EQ(matrix.at(1, 3), 2u);  // pages 20 and 30
  for (const auto& [a, b] : {std::pair{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}}) {
    EXPECT_EQ(matrix.at(a, b), 1u) << a << "," << b;  // page 30 only
  }
  EXPECT_EQ(add_shared_pages({}, matrix).matches, 0u);
}

// ------------------------------------------------------------------ oracle

TEST(OracleDetector, CountsSharingWithinWindow) {
  Machine m(MachineConfig::tiny());
  OracleDetector oracle(2, OracleDetectorConfig{/*window=*/100});
  m.run(streams_of({
            {read_at(5 * kPage, 100)},
            {read_at(5 * kPage)},
        }),
        run_with(&oracle, 2));
  EXPECT_EQ(oracle.matrix().at(0, 1), 1u);
  EXPECT_EQ(oracle.pages_seen(), 1u);
}

TEST(OracleDetector, WindowExpiry) {
  Machine m(MachineConfig::tiny());
  OracleDetector oracle(2, OracleDetectorConfig{/*window=*/3});
  // Thread 1 touches the shared page, then thread 0 performs 5 private
  // accesses before touching it: the page's last touch is > 3 accesses old.
  m.run(streams_of({
            {read_at(kPage, 500), read_at(2 * kPage), read_at(3 * kPage),
             read_at(kPage), read_at(2 * kPage), read_at(9 * kPage)},
            {read_at(9 * kPage)},
        }),
        run_with(&oracle, 2));
  EXPECT_EQ(oracle.matrix().at(0, 1), 0u);
}

TEST(OracleDetector, UnlimitedWindow) {
  Machine m(MachineConfig::tiny());
  OracleDetector oracle(2, OracleDetectorConfig{/*window=*/0});
  std::vector<TraceEvent> filler;
  filler.push_back(read_at(9 * kPage, 500));
  for (int i = 0; i < 50; ++i) filler.push_back(read_at(2 * kPage));
  filler.push_back(read_at(9 * kPage));
  m.run(streams_of({filler, {read_at(9 * kPage)}}), run_with(&oracle, 2));
  EXPECT_GE(oracle.matrix().at(0, 1), 1u);
}

TEST(OracleDetector, IsFreeOfOverhead) {
  Machine m(MachineConfig::tiny());
  OracleDetector oracle(2);
  const MachineStats stats = m.run(
      streams_of({{read_at(0)}, {read_at(0)}}), run_with(&oracle, 2));
  EXPECT_EQ(stats.detection_overhead_cycles, 0u);
}

// ------------------------------------------- synthetic end-to-end patterns

std::vector<std::unique_ptr<ThreadStream>> workload_streams(
    const Workload& w, std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadStream>> out;
  for (ThreadId t = 0; t < w.num_threads(); ++t) {
    out.push_back(w.stream(t, seed));
  }
  return out;
}

TEST(DetectorsOnSynthetic, PairsPatternDetectedBySm) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 64;  // beyond TLB reach: misses recur
  const auto workload = make_synthetic(spec);
  Machine m((MachineConfig()));
  SmDetector sm(m, 8, SmDetectorConfig{1, 231});
  m.run(workload_streams(*workload, 3), run_with(&sm, 8));
  // Every even thread communicates with its pair far more than with anyone
  // else.
  for (int t = 0; t < 8; t += 2) {
    const std::uint64_t with_pair = sm.matrix().at(t, t + 1);
    EXPECT_GT(with_pair, 0u) << "pair " << t;
    for (int other = 0; other < 8; ++other) {
      if (other == t || other == t + 1) continue;
      EXPECT_GT(with_pair, sm.matrix().at(t, other))
          << "pair " << t << " vs " << other;
    }
  }
}

TEST(DetectorsOnSynthetic, RingPatternDetectedByHm) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.iterations = 8;
  const auto workload = make_synthetic(spec);
  Machine m((MachineConfig()));
  HmDetector hm(m, 8, HmDetectorConfig{/*interval=*/50'000, /*cost=*/0});
  m.run(workload_streams(*workload, 3), run_with(&hm, 8));
  // Ring: neighbours (mod 8) communicate, including the wrap pair (7, 0).
  std::uint64_t ring_weight = 0, cross_weight = 0;
  for (int t = 0; t < 8; ++t) {
    ring_weight += hm.matrix().at(t, (t + 1) % 8);
    cross_weight += hm.matrix().at(t, (t + 3) % 8);
  }
  EXPECT_GT(ring_weight, 4 * cross_weight);
}

TEST(DetectorsOnSynthetic, PrivatePatternStaysEmpty) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPrivate;
  const auto workload = make_synthetic(spec);
  Machine m((MachineConfig()));
  SmDetector sm(m, 8, SmDetectorConfig{1, 231});
  m.run(workload_streams(*workload, 3), run_with(&sm, 8));
  EXPECT_EQ(sm.matrix().total(), 0u);
}

TEST(DetectorsOnSynthetic, OracleSeesAllToAll) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kAllToAll;
  const auto workload = make_synthetic(spec);
  Machine m((MachineConfig()));
  OracleDetector oracle(8);
  m.run(workload_streams(*workload, 3), run_with(&oracle, 8));
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      EXPECT_GT(oracle.matrix().at(a, b), 0u) << a << "," << b;
    }
  }
}


TEST(OracleDetector, LineGranularityDistinguishesFalseSharing) {
  // Two threads write the same page but strictly disjoint cache lines:
  // page-level oracle reports communication, line-level reports none.
  Machine m(MachineConfig::tiny());
  OracleDetector page_oracle(2, OracleDetectorConfig{100, 12});
  m.run(streams_of({
            {read_at(0, 500)},     // line 0 of page 0
            {read_at(64)},         // line 1 of page 0
        }),
        run_with(&page_oracle, 2));
  EXPECT_EQ(page_oracle.matrix().at(0, 1), 1u);

  Machine m2(MachineConfig::tiny());
  OracleDetector line_oracle(2, OracleDetectorConfig{100, 6});
  m2.run(streams_of({
             {read_at(0, 500)},
             {read_at(64)},
         }),
         run_with(&line_oracle, 2));
  EXPECT_EQ(line_oracle.matrix().at(0, 1), 0u);
}

TEST(OracleDetector, LineGranularitySeesTrueSharing) {
  Machine m(MachineConfig::tiny());
  OracleDetector line_oracle(2, OracleDetectorConfig{100, 6});
  m.run(streams_of({
            {read_at(8, 500)},  // same line as below (offsets 8 and 16)
            {read_at(16)},
        }),
        run_with(&line_oracle, 2));
  EXPECT_EQ(line_oracle.matrix().at(0, 1), 1u);
}

TEST(DetectorsOnSynthetic, FalseSharePatternHasDisjointLines) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kFalseShare;
  spec.shared_pages = 8;
  spec.shared_accesses = 1024;
  spec.private_pages = 8;
  spec.iterations = 2;
  const auto workload = make_synthetic(spec);
  Machine m((MachineConfig()));
  OracleDetector line_oracle(8, OracleDetectorConfig{0, 6});
  m.run(workload_streams(*workload, 3), run_with(&line_oracle, 8));
  EXPECT_EQ(line_oracle.matrix().total(), 0u);

  Machine m2((MachineConfig()));
  OracleDetector page_oracle(8, OracleDetectorConfig{0, 12});
  m2.run(workload_streams(*workload, 3), run_with(&page_oracle, 8));
  EXPECT_GT(page_oracle.matrix().total(), 0u);
}

}  // namespace
}  // namespace tlbmap
