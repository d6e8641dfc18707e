// Engineering bench: simulator throughput (google-benchmark).
//
// Not a paper artefact — this measures the reproduction itself: simulated
// accesses per second for the main access paths, how much an attached
// detector costs the simulation, and how machine size scales. Useful when
// sizing workloads or hunting regressions in the hot path.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "detect/hm_detector.hpp"
#include "detect/oracle_detector.hpp"
#include "detect/sm_detector.hpp"
#include "mapping/mapping.hpp"
#include "npb/synthetic.hpp"
#include "npb/workload.hpp"
#include "sim/cache.hpp"
#include "sim/machine.hpp"

namespace {

using namespace tlbmap;

SyntheticSpec bench_spec(int threads) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.num_threads = threads;
  spec.private_pages = 64;
  spec.shared_pages = 8;
  spec.iterations = 2;
  return spec;
}

MachineConfig machine_for_threads(int threads) {
  MachineConfig c = MachineConfig::harpertown();
  if (threads > c.num_cores()) {
    c.num_sockets = (threads + c.cores_per_socket - 1) / c.cores_per_socket;
  }
  return c;
}

std::uint64_t run_once(int threads, MachineObserver* observer) {
  const auto workload = make_synthetic(bench_spec(threads));
  Machine machine(machine_for_threads(threads));
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < threads; ++t) {
    streams.push_back(workload->stream(t, 1));
  }
  Machine::RunConfig cfg;
  for (int t = 0; t < threads; ++t) cfg.thread_to_core.push_back(t);
  cfg.observer = observer;
  return machine.run(std::move(streams), cfg).accesses;
}

void BM_SimulatorThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    accesses += run_once(threads, nullptr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorWithSmDetector(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    // The detector needs the machine it observes; rebuild per iteration.
    const auto workload = make_synthetic(bench_spec(threads));
    Machine machine(machine_for_threads(threads));
    SmDetector sm(machine, threads, SmDetectorConfig{10, 231});
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < threads; ++t) {
      streams.push_back(workload->stream(t, 1));
    }
    Machine::RunConfig cfg;
    for (int t = 0; t < threads; ++t) cfg.thread_to_core.push_back(t);
    cfg.observer = &sm;
    accesses += machine.run(std::move(streams), cfg).accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SimulatorWithSmDetector)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// End-to-end cost of the HM mechanism inside the simulation, with the
// sweep interval cranked down so sweeps dominate.
void BM_SimulatorWithHmDetector(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    const auto workload = make_synthetic(bench_spec(threads));
    Machine machine(machine_for_threads(threads));
    HmDetectorConfig hm;
    hm.interval = 20'000;
    // The paper's cost-to-interval ratio (84,297 per 10M cycles), as in
    // bench_ablation_sampling: the default cost exceeds this interval.
    hm.search_cost = hm.interval * 84'297 / 10'000'000;
    HmDetector det(machine, threads, hm);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < threads; ++t) {
      streams.push_back(workload->stream(t, 1));
    }
    Machine::RunConfig cfg;
    for (int t = 0; t < threads; ++t) cfg.thread_to_core.push_back(t);
    cfg.observer = &det;
    accesses += machine.run(std::move(streams), cfg).accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SimulatorWithHmDetector)
    ->ArgName("threads")
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// A coherence-bound run where every thread hammers one shared buffer, so
// nearly every L2 miss probes the bus and every write strips sharers: the
// line-occupancy directory's cost as the core count (and with it the
// number of snoop peers) grows.
void BM_CoherenceBoundScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kAllToAll;
  spec.num_threads = threads;
  spec.shared_pages = 32;
  spec.private_pages = 2;
  // Past 64 cores, shrink the per-thread work so an iteration stays short.
  // The <=64-core points keep the original spec (comparable to old
  // baselines).
  spec.shared_accesses = threads > 64 ? 1024 : 4096;
  spec.private_accesses = 256;
  spec.iterations = threads > 64 ? 1 : 2;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    const auto workload = make_synthetic(spec);
    MachineConfig config = machine_for_threads(threads);
    config.cores_per_l2 = 1;  // one L2 per core: num_l2 snoop peers = cores
    Machine machine(config);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < threads; ++t) {
      streams.push_back(workload->stream(t, 1));
    }
    Machine::RunConfig cfg;
    for (int t = 0; t < threads; ++t) cfg.thread_to_core.push_back(t);
    accesses += machine.run(std::move(streams), cfg).accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
// 128 and 256 cores need holder rows wider than one 64-bit word.
BENCHMARK(BM_CoherenceBoundScaling)
    ->ArgName("cores")
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

// The manycore regime end to end: NPB SP at 256 threads on
// MachineConfig::manycore() (256 single-core L2s, NUMA, 8-column mesh,
// small caches), under a random placement. Eviction-heavy, so nearly every
// L2 miss inserts and erases directory entries, and the scheduler picks
// among 256 clocks at every event.
void BM_Manycore256Sp(benchmark::State& state) {
  WorkloadParams params;
  params.num_threads = 256;
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("SP", params);
  const MachineConfig config = MachineConfig::manycore();
  const Mapping placement =
      random_mapping(params.num_threads, config.num_cores(), /*seed=*/71);
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    Machine machine(config);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < params.num_threads; ++t) {
      streams.push_back(workload->stream(t, 1));
    }
    Machine::RunConfig cfg;
    cfg.thread_to_core = placement;
    accesses += machine.run(std::move(streams), cfg).accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_Manycore256Sp)->Unit(benchmark::kMillisecond);

void BM_SimulatorWithOracle(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    OracleDetector oracle(threads);
    accesses += run_once(threads, &oracle);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SimulatorWithOracle)->Arg(8)->Unit(benchmark::kMillisecond);

// Trace generation alone: every thread of the nine NPB apps (8 threads,
// size 0.25, iterations 0.2) drained through ThreadStream::next(), the
// path Machine::run consumes, with no simulation. Reports ns per event.
void BM_TraceGeneration(benchmark::State& state) {
  WorkloadParams params;
  params.size_scale = 0.25;
  params.iter_scale = 0.2;
  std::vector<std::unique_ptr<Workload>> apps;
  for (const std::string& name : npb_workload_names()) {
    apps.push_back(make_npb_workload(name, params));
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (const auto& app : apps) {
      for (ThreadId t = 0; t < app->num_threads(); ++t) {
        const auto stream = app->stream(t, 1);
        TraceEvent ev;
        do {
          ev = stream->next();
          benchmark::DoNotOptimize(ev);
          ++events;
        } while (ev.kind != TraceEvent::Kind::kEnd);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  // Seconds per event; the console prints it with an SI prefix (e.g. 8ns).
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

// Fixed cost of building a machine: every TLB, L1 and L2 is allocated and
// cleared. The suite and the service build one per evaluated run, so this
// sits on every run's path. 0 = Harpertown, 1 = manycore().
void BM_MachineConstruct(benchmark::State& state) {
  const MachineConfig config = state.range(0) == 0
                                   ? MachineConfig::harpertown()
                                   : MachineConfig::manycore();
  for (auto _ : state) {
    Machine machine(config);
    benchmark::DoNotOptimize(&machine);
  }
}
BENCHMARK(BM_MachineConstruct)->Arg(0)->Arg(1)->ArgNames({"manycore"});

// One lookup in the paper's L2 geometry (6 MB, 8-way, 12,288 sets, not a
// power of two). arm 0: find() on resident lines, spread over every set.
// arm 1: a cyclic stream over four times the capacity, disjoint from the
// lines filled up front, so every find() misses and the insert() after it
// evicts the set's LRU line. arm 2: a read then a store to the same
// resident line, both looked up through one way hint as a core does: the
// read walks the set, the store's find() is one tag compare, and the line
// turns Modified. An arm-2 iteration costs two lookups.
void BM_CacheAccess(benchmark::State& state) {
  const bool miss = state.range(0) == 1;
  const bool read_then_write = state.range(0) == 2;
  Cache cache(MachineConfig::harpertown().l2);
  const LineAddr capacity = cache.num_sets() * cache.ways();
  const LineAddr range = miss ? 4 * capacity : capacity;
  const LineAddr filled = miss ? range : 0;
  for (LineAddr a = filled; a < filled + capacity; ++a) {
    cache.insert(a, MesiState::kExclusive);
  }
  // A prime stride, coprime with the range: visits every line of it.
  const LineAddr stride = 7'919;
  LineAddr line = 0;
  std::size_t hint = Cache::kNoWay;
  for (auto _ : state) {
    line += stride;
    if (line >= range) line -= range;
    if (read_then_write) {
      benchmark::DoNotOptimize(cache.find(line, hint));
      MesiState* held = cache.find(line, hint);
      *held = MesiState::kModified;
      benchmark::DoNotOptimize(held);
    } else if (cache.find(line) == nullptr) {
      benchmark::DoNotOptimize(cache.insert(line, MesiState::kExclusive));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"arm"});

}  // namespace

BENCHMARK_MAIN();
