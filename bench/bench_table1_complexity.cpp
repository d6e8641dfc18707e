// Table I: comparison of the SM and HM mechanisms, including the measured
// cost scaling of their search routines.
//
// The paper derives Theta(P) per sampled miss for SM (probe one TLB set in
// each of the other P-1 cores) and Theta(P^2 * S) per sweep for HM (compare
// every pair of TLBs set by set). This bench first prints the qualitative
// table, then measures both routines with google-benchmark while sweeping
// the core count P and the TLB size S — the reported complexity columns
// should be visible in the timings.
//
// BM_HmDetectorSweep times the production HmDetector::sweep, the sorted
// page grouping: Theta(P * S * w log(P * S * w)) to gather and sort plus
// Theta(matches) to accumulate. It yields the same matrix as BM_HmSweep's
// literal pairwise walk (asserted in tests/test_detectors.cpp), so the two
// timings at the same P compare the algorithms.
//
// BM_Multisection times the mapping step that consumes the matrix at
// manycore scale, on the two shapes its swap search treats differently:
// every pair nonzero (dense=1, where it scans all pairs) and a banded
// matrix with ~10 partners per thread (dense=0, where it lists only the
// pairs that can gain).
//
// BM_CommMatrixAdd times one CommMatrix::add, the detectors' per-match
// cost, in detector order (random=0: one thread against every other in
// turn, as the SM and oracle detectors add) and on uniformly random pairs
// (random=1).
#include <cstdio>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/report.hpp"
#include "detect/hm_detector.hpp"
#include "mapping/multisection.hpp"
#include "npb/synthetic.hpp"
#include "sim/machine.hpp"
#include "sim/tlb.hpp"

namespace {

using namespace tlbmap;

std::vector<Tlb> make_tlbs(int cores, std::size_t entries, std::size_t ways,
                           std::uint64_t seed) {
  TlbConfig cfg;
  cfg.entries = entries;
  cfg.ways = ways;
  std::vector<Tlb> tlbs;
  tlbs.reserve(static_cast<std::size_t>(cores));
  std::mt19937_64 rng(seed);
  for (int c = 0; c < cores; ++c) {
    Tlb tlb(cfg);
    // Fill with a mix of private and shared pages so probes hit sometimes.
    for (std::size_t i = 0; i < entries; ++i) {
      const bool shared = (rng() % 4) == 0;
      const PageNum page = shared ? rng() % (entries * 2)
                                  : (static_cast<PageNum>(c) << 32) + rng() % (entries * 2);
      tlb.insert(page);
    }
    tlbs.push_back(std::move(tlb));
  }
  return tlbs;
}

// SM: one sampled miss on core 0 probes one set of each other TLB.
void BM_SmSearch(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const std::size_t entries = static_cast<std::size_t>(state.range(1));
  auto tlbs = make_tlbs(cores, entries, 4, 42);
  std::mt19937_64 rng(7);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    const PageNum page = rng() % (entries * 2);
    for (int other = 1; other < cores; ++other) {
      matches += tlbs[static_cast<std::size_t>(other)].contains(page) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(cores);
}

// HM: one periodic sweep compares all pairs of TLBs, set by set.
void BM_HmSweep(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const std::size_t entries = static_cast<std::size_t>(state.range(1));
  auto tlbs = make_tlbs(cores, entries, 4, 42);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    for (int a = 0; a < cores; ++a) {
      for (int b = a + 1; b < cores; ++b) {
        for (std::size_t set = 0; set < tlbs[0].num_sets(); ++set) {
          const auto tags_b = tlbs[static_cast<std::size_t>(b)].set_tags(set);
          for (const std::uint64_t tag :
               tlbs[static_cast<std::size_t>(a)].set_tags(set)) {
            if (tag == kInvalidTag) continue;
            for (const std::uint64_t other : tags_b) {
              if (other == tag) {
                ++matches;
                break;
              }
            }
          }
        }
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(cores);
}

BENCHMARK(BM_SmSearch)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {64}})
    ->ArgNames({"P", "S"});
BENCHMARK(BM_SmSearch)
    ->ArgsProduct({{8}, {16, 64, 256, 1024}})
    ->ArgNames({"P", "S"});  // SM is ~flat in S (set-associative probe)
BENCHMARK(BM_HmSweep)
    ->ArgsProduct({{2, 4, 8, 16, 32}, {64}})
    ->ArgNames({"P", "S"});  // quadratic in P
BENCHMARK(BM_HmSweep)
    ->ArgsProduct({{8}, {16, 64, 256, 1024}})
    ->ArgNames({"P", "S"});  // linear in S

// Production HmDetector::sweep on a primed machine.
void BM_HmDetectorSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  MachineConfig mc = MachineConfig::harpertown();
  if (threads > mc.num_cores()) {
    mc.num_sockets =
        (threads + mc.cores_per_socket - 1) / mc.cores_per_socket;
  }
  Machine machine(mc);
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.num_threads = threads;
  spec.private_pages = 48;
  spec.shared_pages = 16;
  spec.iterations = 2;
  const auto workload = make_synthetic(spec);
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < threads; ++t) {
    streams.push_back(workload->stream(t, 1));
  }
  Machine::RunConfig cfg;
  for (int t = 0; t < threads; ++t) cfg.thread_to_core.push_back(t);
  machine.run(std::move(streams), cfg);  // prime the TLBs

  HmDetector detector(machine, threads);
  for (auto _ : state) {
    detector.sweep();
    benchmark::DoNotOptimize(detector.matrix());
  }
  state.SetComplexityN(threads);
}
BENCHMARK(BM_HmDetectorSweep)->ArgName("P")->Arg(8)->Arg(32)->Arg(64)->Arg(128);

// dense=1: every pair nonzero, N threads on MachineConfig::manycore().
// dense=0: a +-1..3 neighbour band plus 2N random background pairs, on the
// manycore tiles scaled to N/8 sockets on a 16-column mesh.
void BM_Multisection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool dense = state.range(1) != 0;
  MachineConfig mc = MachineConfig::manycore();
  if (!dense) {
    mc.num_sockets = n / 8;
    mc.socket_mesh_cols = 16;
  }
  const Topology topology(mc);
  CommMatrix comm(n);
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 2 + (dense ? 1 : 0));
  if (dense) {
    for (ThreadId a = 0; a < n; ++a) {
      for (ThreadId b = a + 1; b < n; ++b) comm.add(a, b, 1 + rng() % 1000);
    }
  } else {
    for (ThreadId a = 0; a < n; ++a) {
      for (int d = 1; d <= 3 && a + d < n; ++d) {
        comm.add(a, a + d, (1024u >> (2 * (d - 1))) + rng() % 64);
      }
    }
    for (int k = 0; k < 2 * n; ++k) {
      const auto a = static_cast<ThreadId>(rng() % static_cast<unsigned>(n));
      const auto b = static_cast<ThreadId>(rng() % static_cast<unsigned>(n));
      comm.add(a, b, 1 + rng() % 16);
    }
  }
  const MultisectionMapper mapper(topology);
  for (auto _ : state) {
    Mapping mapping = mapper.map(comm);
    benchmark::DoNotOptimize(mapping.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Multisection)
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({4096, 0})
    ->ArgNames({"N", "dense"})
    ->Unit(benchmark::kMillisecond);

void BM_CommMatrixAdd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool random = state.range(1) != 0;
  std::vector<std::pair<ThreadId, ThreadId>> pairs;
  if (random) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    pairs.resize(std::size_t{1} << 16);
    for (auto& [a, b] : pairs) {
      a = static_cast<ThreadId>(rng() % static_cast<unsigned>(n));
      b = static_cast<ThreadId>(rng() % static_cast<unsigned>(n));
    }
  } else {
    for (ThreadId a = 0; a < n; ++a) {
      for (ThreadId b = 0; b < n; ++b) {
        if (b != a) pairs.emplace_back(a, b);
      }
    }
  }
  CommMatrix comm(n);
  std::size_t i = 0;
  for (auto _ : state) {
    comm.add(pairs[i].first, pairs[i].second);
    benchmark::ClobberMemory();
    if (++i == pairs.size()) i = 0;
  }
  benchmark::DoNotOptimize(comm.max());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommMatrixAdd)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->ArgNames({"N", "random"});

void print_table1() {
  using tlbmap::TextTable;
  std::printf("== Table I: proposed mechanism, SM vs HM\n\n");
  TextTable t({"", "software-managed TLB", "hardware-managed TLB"});
  t.add_row({"example architecture", "SPARC, MIPS", "Intel x86/x86-64"});
  t.add_row({"trigger", "every n-th TLB miss", "every n million cycles"});
  t.add_row({"paper's n", "100", "10,000,000"});
  t.add_row({"TLBs searched", "miss core vs all others",
             "all possible pairs"});
  t.add_row({"complexity (set-assoc.)", "Theta(P)", "Theta(P^2 * S)"});
  t.add_row({"hardware change needed", "no", "yes (TLB read instruction)"});
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
