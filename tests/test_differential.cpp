// Differential and stress tests: the cache and TLB models are compared
// against brute-force reference implementations on long random operation
// sequences, randomly generated access programs are checked against
// their declared totals and bounds, and the batched trace generator
// (ProgramStream::fill, Mt19937_64) is compared event for event against
// the per-event interpreter and std::mt19937_64 it replaced.
#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "npb/workload.hpp"
#include "sim/access_program.hpp"
#include "sim/cache.hpp"
#include "sim/machine.hpp"
#include "sim/mt19937_64.hpp"
#include "sim/tlb.hpp"

namespace tlbmap {
namespace {

// ----------------------------------------------------------------- caches

/// Brute-force set-associative LRU cache: per-set std::list in MRU order.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t sets, std::size_t ways)
      : sets_(sets), ways_(ways), lru_(sets) {}

  bool find(LineAddr addr) {  // refreshes LRU like Cache::find
    auto& set = lru_[addr % sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == addr) {
        set.splice(set.begin(), set, it);
        return true;
      }
    }
    return false;
  }

  bool contains(LineAddr addr) const {  // no LRU refresh, like Tlb::contains
    for (const auto& [a, state] : lru_[addr % sets_]) {
      if (a == addr) return true;
    }
    return false;
  }

  std::optional<LineAddr> insert(LineAddr addr, MesiState state) {
    const auto victim = insert_evicting(addr, state);
    if (!victim.has_value()) return std::nullopt;
    return victim->addr;
  }

  /// insert() that also reports the victim's state.
  std::optional<Cache::Eviction> insert_evicting(LineAddr addr,
                                                 MesiState state) {
    auto& set = lru_[addr % sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == addr) {
        it->second = state;
        set.splice(set.begin(), set, it);
        return std::nullopt;
      }
    }
    std::optional<Cache::Eviction> victim;
    if (set.size() == ways_) {
      victim = Cache::Eviction{set.back().first, set.back().second};
      set.pop_back();
    }
    set.emplace_front(addr, state);
    return victim;
  }

  bool invalidate(LineAddr addr) { return invalidate_state(addr).has_value(); }

  void flush() {
    for (auto& set : lru_) set.clear();
  }

  /// invalidate() that reports the state the line held.
  std::optional<MesiState> invalidate_state(LineAddr addr) {
    auto& set = lru_[addr % sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == addr) {
        const MesiState old = it->second;
        set.erase(it);
        return old;
      }
    }
    return std::nullopt;
  }

 private:
  std::size_t sets_, ways_;
  std::vector<std::list<std::pair<LineAddr, MesiState>>> lru_;
};

/// Keys drawn from the full 64-bit range (kInvalidTag excluded) yet
/// crowded into at most four sets so that they collide and evict: each is
/// q * sets + s for a random quotient q below 2^63 / sets, plus the largest
/// valid key and a few raw 64-bit draws. A wrong set reduction sends some
/// key to a different set than `key % sets` and shows up as a mismatch.
std::vector<std::uint64_t> wide_keys(std::size_t sets, std::size_t ways,
                                     std::mt19937_64& rng) {
  const std::size_t hot_sets = std::min<std::size_t>(sets, 4);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < hot_sets * ways * 3; ++i) {
    const std::uint64_t set = (i % hot_sets) * (sets / hot_sets);
    keys.push_back(((rng() >> 1) / sets) * sets + set);
  }
  keys.push_back(kInvalidTag - 1);
  while (keys.size() < hot_sets * ways * 3 + 9) {
    const std::uint64_t raw = rng();
    if (raw != kInvalidTag) keys.push_back(raw);
  }
  return keys;
}

MesiState random_state(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0: return MesiState::kShared;
    case 1: return MesiState::kExclusive;
    default: return MesiState::kModified;
  }
}

struct CacheFuzzParam {
  std::size_t size_bytes;
  std::size_t ways;
  std::uint64_t seed;
};

class CacheDifferential : public ::testing::TestWithParam<CacheFuzzParam> {};

TEST_P(CacheDifferential, MatchesReferenceOnRandomOps) {
  const auto [size, ways, seed] = GetParam();
  const CacheConfig config{size, 64, ways, 1};
  Cache cache(config);
  ReferenceCache ref(cache.num_sets(), cache.ways());
  std::mt19937_64 rng(seed);
  const LineAddr addr_space = cache.num_sets() * cache.ways() * 3;

  for (int op = 0; op < 20'000; ++op) {
    const LineAddr addr = rng() % addr_space;
    switch (rng() % 3) {
      case 0: {  // lookup
        const bool got = cache.find(addr) != nullptr;
        const bool want = ref.find(addr);
        ASSERT_EQ(got, want) << "find mismatch at op " << op;
        break;
      }
      case 1: {  // insert
        const MesiState state =
            (rng() % 2) != 0u ? MesiState::kModified : MesiState::kShared;
        const auto got = cache.insert(addr, state);
        const auto want = ref.insert(addr, state);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got.has_value()) {
          ASSERT_EQ(got->addr, *want) << "victim mismatch at op " << op;
        }
        break;
      }
      case 2: {  // invalidate
        const bool got = cache.invalidate(addr).has_value();
        const bool want = ref.invalidate(addr);
        ASSERT_EQ(got, want) << "invalidate mismatch at op " << op;
        break;
      }
    }
  }
}

// Full-range keys, and the victim's and invalidated line's states as well
// as their addresses.
TEST_P(CacheDifferential, MatchesReferenceOnWideKeys) {
  const auto [size, ways, seed] = GetParam();
  Cache cache(CacheConfig{size, 64, ways, 1});
  ReferenceCache ref(cache.num_sets(), cache.ways());
  std::mt19937_64 rng(seed + 100);
  const std::vector<std::uint64_t> keys =
      wide_keys(cache.num_sets(), cache.ways(), rng);

  for (int op = 0; op < 20'000; ++op) {
    const LineAddr addr = keys[rng() % keys.size()];
    switch (rng() % 3) {
      case 0:
        ASSERT_EQ(cache.find(addr) != nullptr, ref.find(addr)) << "op " << op;
        break;
      case 1: {
        const MesiState state = random_state(rng);
        const auto got = cache.insert(addr, state);
        const auto want = ref.insert_evicting(addr, state);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got.has_value()) {
          ASSERT_EQ(got->addr, want->addr) << "victim mismatch at op " << op;
          ASSERT_EQ(got->state, want->state) << "victim state at op " << op;
        }
        break;
      }
      case 2:
        ASSERT_EQ(cache.invalidate(addr), ref.invalidate_state(addr))
            << "op " << op;
        break;
    }
  }
}

// One way hint carried through every find and insert, the way a core
// carries its L1 and L2 hints. Half the ops reuse the previous line, so the
// hint often matches; evictions, invalidates and flushes leave it stale in
// range, and now and then it is replaced by an out-of-range value. A hint
// is only a guess, so every result must still match the hint-free
// reference.
TEST_P(CacheDifferential, MatchesReferenceThroughOneWayHint) {
  const auto [size, ways, seed] = GetParam();
  Cache cache(CacheConfig{size, 64, ways, 1});
  ReferenceCache ref(cache.num_sets(), cache.ways());
  std::mt19937_64 rng(seed + 200);
  const std::size_t lines = cache.num_sets() * cache.ways();
  const LineAddr addr_space = lines * 3;
  std::size_t hint = Cache::kNoWay;
  LineAddr addr = 0;

  for (int op = 0; op < 20'000; ++op) {
    if (rng() % 2 == 0) addr = rng() % addr_space;
    switch (rng() % 16) {
      case 0:
        ASSERT_EQ(cache.invalidate(addr), ref.invalidate_state(addr))
            << "op " << op;
        break;
      case 1:
        if (rng() % 8 == 0) {
          cache.flush();
          ref.flush();
        }
        break;
      case 2: {
        const std::size_t out_of_range[] = {lines, lines + rng() % lines,
                                            Cache::kNoWay};
        hint = out_of_range[rng() % 3];
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6:
      case 7: {
        const MesiState state = random_state(rng);
        const auto got = cache.insert(addr, state, hint);
        const auto want = ref.insert_evicting(addr, state);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got.has_value()) {
          ASSERT_EQ(got->addr, want->addr) << "victim mismatch at op " << op;
          ASSERT_EQ(got->state, want->state) << "victim state at op " << op;
        }
        break;
      }
      default: {
        const MesiState* got = cache.find(addr, hint);
        ASSERT_EQ(got != nullptr, ref.find(addr)) << "find at op " << op;
        if (got != nullptr) {
          ASSERT_EQ(got, cache.peek(addr)) << "hinted way at op " << op;
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(CacheFuzzParam{512, 1, 1}, CacheFuzzParam{512, 2, 2},
                      CacheFuzzParam{512, 8, 3}, CacheFuzzParam{4096, 4, 4},
                      CacheFuzzParam{2048, 16, 5},
                      CacheFuzzParam{1024, 2, 6},
                      // 3 sets, and the paper's L2 with 12,288 sets: set
                      // counts that are not powers of two.
                      CacheFuzzParam{768, 4, 7},
                      CacheFuzzParam{6 * 1024 * 1024, 8, 8}),
    [](const ::testing::TestParamInfo<CacheFuzzParam>& info) {
      return "b" + std::to_string(info.param.size_bytes) + "_w" +
             std::to_string(info.param.ways) + "_s" +
             std::to_string(info.param.seed);
    });

// ------------------------------------------------------------------- TLBs

struct TlbFuzzParam {
  std::size_t entries;
  std::size_t ways;
  std::uint64_t seed;
};

class TlbDifferential : public ::testing::TestWithParam<TlbFuzzParam> {};

TEST_P(TlbDifferential, MatchesReferenceOnRandomOps) {
  const auto [entries, ways, seed] = GetParam();
  Tlb tlb(TlbConfig{entries, ways});
  ReferenceCache ref(tlb.num_sets(), tlb.ways());
  std::mt19937_64 rng(seed);
  const PageNum page_space = entries * 3;

  for (int op = 0; op < 20'000; ++op) {
    const PageNum page = rng() % page_space;
    switch (rng() % 4) {
      case 0:
        ASSERT_EQ(tlb.lookup(page), ref.find(page)) << "op " << op;
        break;
      case 1: {
        tlb.insert(page);
        ref.insert(page, MesiState::kShared);
        break;
      }
      case 2: {
        // contains must not disturb LRU: emulate by probing both and then
        // verifying a subsequent capacity probe agrees (done implicitly by
        // later ops; here just compare membership).
        bool want = false;
        // ReferenceCache::find refreshes; use a throwaway copy probe via
        // insert-less scan: reuse invalidate+insert would disturb, so scan
        // by lookup on a clone is not possible — instead compare against
        // tlb.contains twice (idempotence) and against lookup afterwards.
        const bool got1 = tlb.contains(page);
        const bool got2 = tlb.contains(page);
        ASSERT_EQ(got1, got2) << "contains not idempotent at op " << op;
        want = ref.find(page);  // refreshes reference LRU...
        if (got1) tlb.lookup(page);  // ...so mirror the refresh in the TLB
        ASSERT_EQ(got1, want) << "contains mismatch at op " << op;
        break;
      }
      case 3:
        ASSERT_EQ(tlb.invalidate(page), ref.invalidate(page)) << "op " << op;
        break;
    }
  }
}

TEST_P(TlbDifferential, MatchesReferenceOnWideKeys) {
  const auto [entries, ways, seed] = GetParam();
  Tlb tlb(TlbConfig{entries, ways});
  ReferenceCache ref(tlb.num_sets(), tlb.ways());
  std::mt19937_64 rng(seed + 100);
  const std::vector<std::uint64_t> keys =
      wide_keys(tlb.num_sets(), tlb.ways(), rng);

  for (int op = 0; op < 20'000; ++op) {
    const PageNum page = keys[rng() % keys.size()];
    switch (rng() % 4) {
      case 0:
        ASSERT_EQ(tlb.lookup(page), ref.find(page)) << "op " << op;
        break;
      case 1:
        tlb.insert(page);
        ref.insert(page, MesiState::kShared);
        break;
      case 2:
        ASSERT_EQ(tlb.contains(page), ref.contains(page)) << "op " << op;
        break;
      case 3:
        ASSERT_EQ(tlb.invalidate(page), ref.invalidate(page)) << "op " << op;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(TlbFuzzParam{8, 2, 10}, TlbFuzzParam{64, 4, 11},
                      TlbFuzzParam{64, 64, 12}, TlbFuzzParam{256, 8, 13},
                      TlbFuzzParam{16, 1, 14},
                      TlbFuzzParam{48, 4, 15}),  // 12 sets
    [](const ::testing::TestParamInfo<TlbFuzzParam>& info) {
      return "e" + std::to_string(info.param.entries) + "_w" +
             std::to_string(info.param.ways) + "_s" +
             std::to_string(info.param.seed);
    });

// -------------------------------------------------- access-program fuzzing

AccessProgram random_program(std::mt19937_64& rng) {
  AccessProgram prog;
  const int phases = 1 + static_cast<int>(rng() % 4);
  for (int p = 0; p < phases; ++p) {
    Phase phase;
    phase.repeat = 1 + static_cast<std::uint32_t>(rng() % 3);
    phase.barrier_after = (rng() % 2) != 0u;
    const int walks = static_cast<int>(rng() % 4);  // may be empty
    for (int w = 0; w < walks; ++w) {
      Walk walk;
      walk.base = (rng() % 64) * 4096;
      walk.length = (1 + rng() % 32) * 4096;
      walk.elem_size = 8;
      walk.pattern = (rng() % 2) != 0u ? Walk::Pattern::kRandom
                                       : Walk::Pattern::kSequential;
      walk.mix = static_cast<Walk::Mix>(rng() % 3);
      walk.count = rng() % 500;
      walk.start_elem = rng() % walk.num_elems();
      walk.stride = static_cast<std::int64_t>(rng() % 37) - 18;
      if (walk.stride == 0) walk.stride = 1;
      walk.compute_gap = static_cast<std::uint32_t>(rng() % 5);
      walk.gap_jitter = static_cast<std::uint32_t>(rng() % 3);
      phase.walks.push_back(walk);
    }
    prog.phases.push_back(std::move(phase));
  }
  prog.iterations = 1 + static_cast<std::uint32_t>(rng() % 3);
  return prog;
}

TEST(ProgramFuzz, StreamsMatchDeclaredTotalsAndBounds) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const AccessProgram prog = random_program(rng);
    ProgramStream stream(prog, trial);
    std::uint64_t accesses = 0, barriers = 0;
    for (std::uint64_t guard = 0; guard < (1u << 22); ++guard) {
      const TraceEvent ev = stream.next();
      if (ev.kind == TraceEvent::Kind::kEnd) break;
      if (ev.kind == TraceEvent::Kind::kBarrier) {
        ++barriers;
        continue;
      }
      ++accesses;
      // Every address stays within the walk regions' overall span.
      ASSERT_GE(ev.access.addr, 0u);
      ASSERT_LT(ev.access.addr, (64 + 32) * 4096u);
      ASSERT_EQ(ev.access.addr % 8, 0u);
    }
    EXPECT_EQ(accesses, prog.total_accesses()) << "trial " << trial;
    EXPECT_EQ(barriers, prog.total_barriers()) << "trial " << trial;
  }
}

TEST(ProgramFuzz, MachineDigestsRandomProgramsDeterministically) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const AccessProgram a = random_program(rng);
    const AccessProgram b = random_program(rng);
    auto run_once = [&] {
      Machine m(MachineConfig::tiny());
      std::vector<std::unique_ptr<ThreadStream>> streams;
      streams.push_back(std::make_unique<ProgramStream>(a, 1));
      streams.push_back(std::make_unique<ProgramStream>(b, 2));
      Machine::RunConfig cfg;
      cfg.thread_to_core = {0, 1};
      return m.run(std::move(streams), cfg);
    };
    const MachineStats s1 = run_once();
    const MachineStats s2 = run_once();
    ASSERT_EQ(s1.execution_cycles, s2.execution_cycles) << trial;
    ASSERT_EQ(s1.accesses, s2.accesses) << trial;
    ASSERT_EQ(s1.invalidations, s2.invalidations) << trial;
    ASSERT_EQ(s1.l2_misses, s2.l2_misses) << trial;
    ASSERT_EQ(s1.accesses, a.total_accesses() + b.total_accesses()) << trial;
  }
}

// ------------------------------------------------ batched trace generation

/// The per-event interpreter ProgramStream::fill replaced, kept as the
/// reference: one position_on_walk pass, a Euclidean `%` per sequential
/// element and std::mt19937_64 draws reduced with `%`.
class ReferenceProgramStream {
 public:
  ReferenceProgramStream(AccessProgram program, std::uint64_t seed)
      : program_(std::move(program)), rng_(seed) {}

  TraceEvent next() {
    if (finished_) return TraceEvent::make_end();
    if (write_pending_) {
      write_pending_ = false;
      return TraceEvent::make_access(pending_addr_, AccessType::kWrite, 0);
    }
    if (!position_on_walk()) {
      if (barrier_pending_) return TraceEvent::make_barrier();
      return TraceEvent::make_end();
    }

    const Phase& phase = program_.phases[phase_];
    const Walk& walk = phase.walks[walk_];
    const std::uint64_t n = walk.num_elems();

    std::uint64_t elem;
    if (walk.pattern == Walk::Pattern::kRandom) {
      elem = rng_() % n;
    } else {
      const std::int64_t signed_elem =
          static_cast<std::int64_t>(walk.start_elem) +
          static_cast<std::int64_t>(elem_index_) * walk.stride;
      std::int64_t m = signed_elem % static_cast<std::int64_t>(n);
      if (m < 0) m += static_cast<std::int64_t>(n);
      elem = static_cast<std::uint64_t>(m);
    }
    ++elem_index_;

    const VirtAddr addr = walk.base + elem * walk.elem_size;
    std::uint32_t gap = walk.compute_gap;
    if (walk.gap_jitter > 0) {
      gap += static_cast<std::uint32_t>(
          rng_() % (std::uint64_t{walk.gap_jitter} + 1));
    }
    switch (walk.mix) {
      case Walk::Mix::kRead:
        return TraceEvent::make_access(addr, AccessType::kRead, gap);
      case Walk::Mix::kWrite:
        return TraceEvent::make_access(addr, AccessType::kWrite, gap);
      case Walk::Mix::kReadWrite:
        write_pending_ = true;
        pending_addr_ = addr;
        return TraceEvent::make_access(addr, AccessType::kRead, gap);
    }
    return TraceEvent::make_end();  // unreachable
  }

 private:
  bool position_on_walk() {
    for (;;) {
      if (iter_ >= program_.iterations) {
        finished_ = true;
        return false;
      }
      const auto& phases = program_.phases;
      if (phase_ >= phases.size()) {
        phase_ = 0;
        phase_rep_ = 0;
        ++iter_;
        continue;
      }
      const Phase& phase = phases[phase_];
      if (phase_rep_ >= phase.repeat) {
        if (phase.barrier_after && !barrier_pending_) {
          barrier_pending_ = true;
          return false;
        }
        barrier_pending_ = false;
        ++phase_;
        phase_rep_ = 0;
        continue;
      }
      if (walk_ >= phase.walks.size()) {
        walk_ = 0;
        elem_index_ = 0;
        ++phase_rep_;
        continue;
      }
      const Walk& walk = phase.walks[walk_];
      if (elem_index_ >= walk.count || walk.num_elems() == 0) {
        ++walk_;
        elem_index_ = 0;
        continue;
      }
      return true;
    }
  }

  AccessProgram program_;
  std::mt19937_64 rng_;
  std::uint32_t iter_ = 0;
  std::size_t phase_ = 0;
  std::uint32_t phase_rep_ = 0;
  std::size_t walk_ = 0;
  std::uint64_t elem_index_ = 0;
  bool write_pending_ = false;
  VirtAddr pending_addr_ = 0;
  bool barrier_pending_ = false;
  bool finished_ = false;
};

/// The reference stream of one thread, displaced into its address space.
struct ReferenceThread {
  ReferenceProgramStream stream;
  VirtAddr offset = 0;

  TraceEvent next() {
    TraceEvent e = stream.next();
    if (e.kind == TraceEvent::Kind::kAccess) e.access.addr += offset;
    return e;
  }
};

/// Drains `stream` through fill() in spans of `span` events and checks
/// each batch against `reference`, event for event; returns the count.
std::uint64_t expect_fill_matches(ThreadStream& stream,
                                  ReferenceThread& reference,
                                  std::size_t span, const std::string& what) {
  std::vector<TraceEvent> batch(span);
  std::uint64_t events = 0;
  for (;;) {
    const std::size_t n = stream.fill(batch);
    EXPECT_GE(n, 1u) << what;
    EXPECT_LE(n, span) << what;
    if (n == 0 || n > span) return events;
    for (std::size_t i = 0; i < n; ++i, ++events) {
      const TraceEvent want = reference.next();
      const TraceEvent& got = batch[i];
      const bool same = got.kind == want.kind &&
                        got.access.addr == want.access.addr &&
                        got.access.type == want.access.type &&
                        got.access.compute_gap == want.access.compute_gap;
      if (!same) {
        ADD_FAILURE() << what << ": event " << events << " differs";
        return events;
      }
      if (got.kind == TraceEvent::Kind::kEnd) {
        EXPECT_EQ(i + 1, n) << what << ": kEnd must end its batch";
        EXPECT_EQ(stream.fill(batch), 1u) << what;  // sticky end
        EXPECT_EQ(batch[0].kind, TraceEvent::Kind::kEnd) << what;
        return events;
      }
    }
  }
}

constexpr std::size_t kSpanSizes[] = {1, 2, 3, 5, 64};

/// ProgramWorkload::stream's per-thread seed.
std::uint64_t thread_seed(std::uint64_t seed, ThreadId t) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t) + 1;
}

TEST(BatchedGeneration, FillMatchesPerEventReferenceOnWorkloads) {
  WorkloadParams params;
  params.num_threads = 4;
  params.size_scale = 0.25;
  params.iter_scale = 0.2;
  std::vector<std::string> names = npb_workload_names();
  names.push_back("CHURN");
  const std::vector<std::string> mix = {"SP", "CG"};
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const std::string& name : names) {
      const auto workload = make_npb_workload(name, params);
      const auto& programs = dynamic_cast<const ProgramWorkload&>(*workload);
      for (ThreadId t = 0; t < workload->num_threads(); ++t) {
        for (const std::size_t span : kSpanSizes) {
          ReferenceThread ref{
              ReferenceProgramStream(programs.program(t), thread_seed(seed, t)),
              0};
          const auto stream = workload->stream(t, seed);
          const std::string what = name + " t" + std::to_string(t) + " seed " +
                                   std::to_string(seed) + " span " +
                                   std::to_string(span);
          EXPECT_GT(expect_fill_matches(*stream, ref, span, what), 0u);
        }
      }
    }
    // Multiprogram: app k's threads use the salted seed and are displaced
    // by k << 40 (npb/multiprogram.cpp).
    const auto mp = make_npb_workload("MP:SP+CG", params);
    for (ThreadId t = 0; t < mp->num_threads(); ++t) {
      const std::size_t k = static_cast<std::size_t>(t / params.num_threads);
      const ThreadId local = t % params.num_threads;
      const auto app = make_npb_workload(mix[k], params);
      const auto& programs = dynamic_cast<const ProgramWorkload&>(*app);
      const std::uint64_t app_seed = seed + k * 0x51ED270B9ull;
      for (const std::size_t span : kSpanSizes) {
        ReferenceThread ref{ReferenceProgramStream(programs.program(local),
                                                   thread_seed(app_seed, local)),
                            static_cast<VirtAddr>(k) << 40};
        const auto stream = mp->stream(t, seed);
        EXPECT_GT(expect_fill_matches(*stream, ref, span,
                                      "MP t" + std::to_string(t) + " span " +
                                          std::to_string(span)),
                  0u);
      }
    }
  }
}

TEST(BatchedGeneration, FillMatchesPerEventReferenceOnRandomPrograms) {
  // Random programs cover what the kernels do not: negative and wrapping
  // strides, empty walks and phases, jitter 0..2 and every mix.
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const AccessProgram prog = random_program(rng);
    for (const std::size_t span : kSpanSizes) {
      ReferenceThread ref{ReferenceProgramStream(prog, trial), 0};
      ProgramStream stream(prog, trial);
      expect_fill_matches(stream, ref, span,
                          "trial " + std::to_string(trial) + " span " +
                              std::to_string(span));
    }
  }
}

TEST(Mt19937_64, MatchesStd) {
  for (const std::uint64_t seed :
       {0ull, 1ull, ~0ull, 0x9E3779B97F4A7C15ull}) {
    Mt19937_64 fast(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {  // six state refills
      ASSERT_EQ(fast(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace tlbmap
