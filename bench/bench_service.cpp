// Engineering bench: mapping-service hot paths (google-benchmark).
//
// Not a paper artefact — this prices DESIGN.md Sec. 16: what the hardened
// ingest path costs per decoded event (bounded queues, deadline slices,
// round-robin decode into the stream detector), what TLBT decoding and the
// detector's feed each cost on their own, what a decision read costs when
// it is a cache hit versus a drift re-match, and what sealing / restoring a
// full service checkpoint costs per session. CI's soak job publishes the JSON as
// BENCH_service.json for cross-commit comparison.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "detect/stream_detector.hpp"
#include "npb/workload.hpp"
#include "sim/trace_file.hpp"
#include "svc/service.hpp"

namespace {

using namespace tlbmap;
using svc::MappingService;
using svc::ServiceConfig;
using svc::SessionId;

ServiceConfig bench_config() {
  ServiceConfig config;
  config.detector.window_pages = 32;
  config.detector.sweep_every = 1024;
  return config;
}

const std::vector<std::vector<std::uint8_t>>& bench_buffers() {
  static const auto buffers = [] {
    WorkloadParams params;
    params.num_threads = 4;
    params.size_scale = 0.1;
    params.iter_scale = 0.1;
    return record_workload(*make_npb_workload("CG", params), /*seed=*/1);
  }();
  return buffers;
}

/// Streams one tenant start to finish: chunked ingest, pump per round,
/// backpressure honoured. Returns events decoded (the throughput unit).
std::uint64_t stream_one_tenant(MappingService& service, SessionId id,
                                std::size_t chunk) {
  const auto& buffers = bench_buffers();
  std::vector<std::size_t> cursor(buffers.size(), 0);
  std::uint64_t events = 0;
  for (;;) {
    bool fed = false;
    for (ThreadId t = 0; t < static_cast<ThreadId>(buffers.size()); ++t) {
      if (cursor[t] >= buffers[t].size()) continue;
      const std::size_t n =
          std::min(chunk, buffers[t].size() - cursor[t]);
      if (service.ingest(id, t, buffers[t].data() + cursor[t], n)
              .has_value()) {
        cursor[t] += n;
      }
      fed = true;
    }
    events += service.pump();
    if (!fed && service.find(id)->status() != svc::SessionStatus::kActive) {
      break;
    }
  }
  return events;
}

void BM_ServiceIngestPump(benchmark::State& state) {
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    MappingService service(bench_config());
    const SessionId id = *service.open_session("bench", 4);
    events += stream_one_tenant(service, id, chunk);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceIngestPump)->Arg(256)->Arg(4096);

void BM_ServiceDecisionCacheHit(benchmark::State& state) {
  // Steady state: stream drained, decision cached; every read is the O(1)
  // cached-placement path the Sec. 16 read contract promises.
  MappingService service(bench_config());
  const SessionId id = *service.open_session("bench", 4);
  stream_one_tenant(service, id, 4096);
  if (!service.decision(id).has_value()) {
    state.SkipWithError("no decision from the bench stream");
    return;
  }
  for (auto _ : state) {
    auto decision = service.decision(id);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_ServiceDecisionCacheHit);

void BM_ServiceCheckpointRoundTrip(benchmark::State& state) {
  // Mid-stream snapshot of N sessions: the SIGTERM path's cost.
  const int tenants = static_cast<int>(state.range(0));
  MappingService service(bench_config());
  const auto& buffers = bench_buffers();
  for (int k = 0; k < tenants; ++k) {
    const SessionId id =
        *service.open_session("bench-" + std::to_string(k), 4);
    for (ThreadId t = 0; t < static_cast<ThreadId>(buffers.size()); ++t) {
      (void)service.ingest(id, t, buffers[t].data(),
                           std::min<std::size_t>(buffers[t].size(), 8192));
    }
  }
  service.pump();
  for (auto _ : state) {
    const std::string sealed = service.serialize("bench-extra");
    MappingService restored(bench_config());
    auto extra = restored.restore(sealed);
    benchmark::DoNotOptimize(extra);
  }
}
BENCHMARK(BM_ServiceCheckpointRoundTrip)->Arg(1)->Arg(8);

/// One (thread, page) access in the order the service feeds its detector.
struct FedAccess {
  ThreadId thread;
  PageNum page;
};

/// Arm 0: SP recorded at 8 threads (full-size data, a tenth of the
/// iterations), drained one event per thread in turn as Session::pump does.
/// Most accesses repeat the thread's last page. Arm 1: as many uniform
/// random pages over twice a window, where a repeat is a 1-in-128 chance.
std::vector<FedAccess> feed_stream(int arm) {
  std::vector<FedAccess> out;
  WorkloadParams params;
  params.num_threads = 8;
  params.size_scale = 1.0;
  params.iter_scale = 0.1;
  const int page_shift = MachineConfig::harpertown().page_shift();
  std::vector<std::unique_ptr<TraceReader>> readers;
  for (auto& buffer :
       record_workload(*make_npb_workload("SP", params), /*seed=*/1)) {
    readers.push_back(std::make_unique<TraceReader>(std::move(buffer)));
  }
  std::vector<bool> ended(readers.size(), false);
  for (std::size_t live = readers.size(); live > 0;) {
    for (std::size_t t = 0; t < readers.size(); ++t) {
      if (ended[t]) continue;
      const TraceEvent event = readers[t]->next();
      if (event.kind == TraceEvent::Kind::kEnd) {
        ended[t] = true;
        --live;
      } else if (event.kind == TraceEvent::Kind::kAccess) {
        out.push_back({static_cast<ThreadId>(t),
                       event.access.addr >> page_shift});
      }
    }
  }
  if (arm == 1) {
    std::mt19937_64 rng(1);
    for (FedAccess& a : out) a.page = rng() % 128;
  }
  return out;
}

// StreamDetector::feed alone at the service's default shape (64-page
// windows, a sweep every 4096 accesses), sweeps included. `same_page` is
// the share of accesses that repeat their thread's last page: the case
// feed() serves without searching the window.
void BM_StreamDetectorFeed(benchmark::State& state) {
  const std::vector<FedAccess> accesses =
      feed_stream(static_cast<int>(state.range(0)));
  std::vector<PageNum> last(8, ~PageNum{0});
  std::uint64_t repeats = 0;
  for (const FedAccess& a : accesses) {
    PageNum& prev = last[static_cast<std::size_t>(a.thread)];
    repeats += a.page == prev;
    prev = a.page;
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    StreamDetector detector(8);
    for (const FedAccess& a : accesses) detector.feed(a.thread, a.page);
    benchmark::DoNotOptimize(detector.matrix().total());
    events += accesses.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  // Seconds per access; the console prints it with an SI prefix (e.g. 5ns).
  state.counters["per_access"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["same_page"] =
      static_cast<double>(repeats) / static_cast<double>(accesses.size());
}
BENCHMARK(BM_StreamDetectorFeed)
    ->ArgName("random")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// SP recorded at 8 threads (full-size data, a tenth of the iterations).
const std::vector<std::vector<std::uint8_t>>& sp_buffers() {
  static const auto buffers = [] {
    WorkloadParams params;
    params.num_threads = 8;
    params.size_scale = 1.0;
    params.iter_scale = 0.1;
    return record_workload(*make_npb_workload("SP", params), /*seed=*/1);
  }();
  return buffers;
}

/// Drains every decodable record of `decoder` into `*sum`; returns events.
std::uint64_t drain_decoder(TraceStreamDecoder& decoder, std::uint64_t* sum) {
  std::uint64_t events = 0;
  TraceEvent event;
  for (;;) {
    const Expected<TraceStreamDecoder::Status> status = decoder.next(&event);
    if (!status.has_value() ||
        *status != TraceStreamDecoder::Status::kEvent) {
      return events;
    }
    *sum += event.access.addr;
    ++events;
  }
}

// TLBT decode alone over the recorded SP buffers, per path: 0 =
// TraceStreamDecoder fed each buffer whole, 1 = the same decoder fed
// 256-byte chunks (the service's ingest shape), 2 = TraceReader::fill
// (recorded replay). `per_event` is seconds per decoded event (barriers
// and the end marker included).
void BM_TraceDecode(benchmark::State& state) {
  const auto& buffers = sp_buffers();
  const int path = static_cast<int>(state.range(0));
  constexpr std::size_t kChunk = 256;
  std::uint64_t events = 0;
  std::uint64_t sum = 0;
  std::vector<TraceEvent> batch(256);
  for (auto _ : state) {
    for (const std::vector<std::uint8_t>& bytes : buffers) {
      if (path == 2) {
        TraceReader reader(bytes);
        for (bool ended = false; !ended;) {
          const std::size_t n = reader.fill(batch);
          for (std::size_t i = 0; i < n; ++i) sum += batch[i].access.addr;
          events += n;
          ended = batch[n - 1].kind == TraceEvent::Kind::kEnd;
        }
        continue;
      }
      TraceStreamDecoder decoder;
      const std::size_t step = path == 0 ? bytes.size() : kChunk;
      for (std::size_t at = 0; at < bytes.size(); at += step) {
        decoder.feed(bytes.data() + at, std::min(step, bytes.size() - at));
        events += drain_decoder(decoder, &sum);
      }
      ++events;  // the end marker
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TraceDecode)
    ->ArgName("path")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
