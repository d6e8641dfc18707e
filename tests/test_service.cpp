// Tests for the mapping service (DESIGN.md Sec. 16): the StreamDetector and
// DecisionCache building blocks, the session lifecycle (admission ->
// backpressure -> quarantine / shedding), checkpoint/resume determinism,
// and the fault-isolation differential — one corrupted tenant must leave
// every surviving tenant's mapping decision *and* its evaluated
// MachineStats bit-identical to a run where the fault never happened.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "detect/stream_detector.hpp"
#include "mapping/decision_cache.hpp"
#include "npb/workload.hpp"
#include "reference_stream_window.hpp"
#include "sim/trace_file.hpp"
#include "svc/serve.hpp"
#include "svc/service.hpp"

namespace tlbmap {
namespace {

using svc::MappingService;
using svc::QuarantineReport;
using svc::ServiceConfig;
using svc::Session;
using svc::SessionId;
using svc::SessionStatus;

// ---------------------------------------------------------------------------
// StreamDetector.

TEST(StreamDetector, ValidateRejectsBadShapes) {
  StreamDetectorConfig bad;
  bad.window_pages = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.sweep_every = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// A fixed synthetic stream: threads 0/1 share pages 0..7, threads 2/3
// share pages 100..107, nothing crosses the pairs.
void feed_paired_pattern(StreamDetector& detector, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (PageNum p = 0; p < 8; ++p) {
      detector.feed(0, p);
      detector.feed(1, p);
      detector.feed(2, 100 + p);
      detector.feed(3, 100 + p);
    }
  }
}

TEST(StreamDetector, SweepFindsSharedWindows) {
  StreamDetectorConfig config;
  config.window_pages = 16;
  config.sweep_every = 64;
  StreamDetector detector(4, config);
  feed_paired_pattern(detector, 8);
  detector.sweep();
  // Four cadence sweeps (events 64..256) plus the forced one, each seeing
  // the pair's 8 shared pages.
  EXPECT_EQ(detector.sweeps(), 5u);
  EXPECT_EQ(detector.events(), 8u * 8u * 4u);
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{2, 3}}) {
    EXPECT_EQ(detector.matrix().at(a, b), 40u) << a << "," << b;
    EXPECT_EQ(detector.matrix().at(b, a), 40u) << b << "," << a;
  }
  EXPECT_EQ(detector.matrix().total(), 80u);  // nothing crosses the pairs
  EXPECT_EQ(detector.matrix().max(), 40u);
}

TEST(StreamDetector, StateRestoreResumesBitIdentically) {
  StreamDetectorConfig config;
  config.window_pages = 8;
  config.sweep_every = 48;
  StreamDetector full(4, config);
  StreamDetector half(4, config);
  feed_paired_pattern(full, 3);
  feed_paired_pattern(half, 3);

  // Snapshot mid-stream, restore into a fresh detector, continue both.
  StreamDetector resumed(4, config);
  resumed.restore(half.state());
  feed_paired_pattern(full, 3);
  feed_paired_pattern(resumed, 3);
  full.sweep();
  resumed.sweep();
  EXPECT_EQ(full.state(), resumed.state());
  EXPECT_EQ(full.matrix(), resumed.matrix());
}

TEST(StreamDetector, RestoreRejectsShapeMismatch) {
  StreamDetector four(4);
  StreamDetector two(2);
  EXPECT_THROW(two.restore(four.state()), std::invalid_argument);
  EXPECT_THROW(four.feed(4, 0), std::invalid_argument);
  EXPECT_THROW(four.feed(-1, 0), std::invalid_argument);
  EXPECT_GT(four.memory_bytes(), 0u);
}

TEST(StreamDetector, RestoreRejectsRepeatedPage) {
  // A window holding page 7 twice would make every sweep count thread 0 as
  // two sharers of it: cell (0, 1) would gain 2 per sweep instead of 1.
  StreamDetector detector(2);
  StreamDetectorState state = detector.state();
  state.windows = {{7, 7}, {7}};
  EXPECT_THROW(detector.restore(state), std::invalid_argument);
  EXPECT_EQ(detector.state(), StreamDetector(2).state());  // left untouched
  state.windows = {{7, 8}, {7}};
  detector.restore(state);
  detector.sweep();
  EXPECT_EQ(detector.matrix().at(0, 1), 1u);
}

TEST(StreamDetector, MemoryBytesFixedFromConstruction) {
  // The service admits a session on memory_bytes() before its first event,
  // so the estimate must already cover the sweep scratch: feeds, sweeps and
  // restores may never grow it.
  constexpr int kWindow = 64;
  StreamDetectorConfig config;
  config.window_pages = kWindow;
  config.sweep_every = 7;
  StreamDetector detector(8, config);
  const std::size_t bytes = detector.memory_bytes();
  EXPECT_GE(bytes, CommMatrix::worst_case_bytes(8) +
                       8 * kWindow *
                           (sizeof(PageNum) +
                            sizeof(std::pair<PageNum, ThreadId>)));

  StreamDetector donor(8, config);
  for (PageNum p = 0; p < 4 * kWindow; ++p) {
    for (ThreadId t = 0; t < 8; ++t) {
      detector.feed(t, p);
      donor.feed(t, p + static_cast<PageNum>(t));
      ASSERT_EQ(detector.memory_bytes(), bytes) << "page " << p;
    }
  }
  detector.sweep();
  EXPECT_GT(detector.sweeps(), 0u);
  EXPECT_EQ(detector.memory_bytes(), bytes);
  detector.restore(donor.state());  // full windows
  EXPECT_EQ(detector.memory_bytes(), bytes);
  detector.restore(StreamDetector(8, config).state());  // empty windows
  EXPECT_EQ(detector.memory_bytes(), bytes);
  detector.feed(0, 1);
  detector.sweep();
  EXPECT_EQ(detector.memory_bytes(), bytes);
}

struct FedAccess {
  ThreadId thread;
  PageNum page;
};

// A recorded NPB stream as the service feeds it: 8 threads drained one
// event per thread in turn (a barrier takes its thread's turn, as in
// Session::pump), accesses mapped to Harpertown pages. Full-size data, so
// threads outgrow a 64-page window; a twentieth of the iterations.
std::vector<FedAccess> recorded_accesses(const std::string& app) {
  WorkloadParams params;
  params.num_threads = 8;
  params.size_scale = 1.0;
  params.iter_scale = 0.05;
  const int page_shift = MachineConfig::harpertown().page_shift();
  std::vector<std::unique_ptr<TraceReader>> readers;
  for (auto& buffer :
       record_workload(*make_npb_workload(app, params), /*seed=*/1)) {
    readers.push_back(std::make_unique<TraceReader>(std::move(buffer)));
  }
  std::vector<FedAccess> out;
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
  return out;
}

// Uniform random pages over a space a little wider than a window, never
// the thread's last page: every access is a deeper hit or a miss.
std::vector<FedAccess> random_accesses(std::size_t count) {
  std::mt19937_64 rng(17);
  std::vector<FedAccess> out;
  std::vector<PageNum> last(8, ~PageNum{0});
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = static_cast<ThreadId>(i % 8);
    PageNum page;
    do {
      page = rng() % 96;
    } while (page == last[static_cast<std::size_t>(t)]);
    last[static_cast<std::size_t>(t)] = page;
    out.push_back({t, page});
  }
  return out;
}

/// How the accesses of the 64-page, uncapped arm met their windows.
struct WindowOutcomes {
  std::uint64_t repeats = 0;    ///< the thread's MRU page again
  std::uint64_t deeper = 0;     ///< found below the MRU entry
  std::uint64_t evictions = 0;  ///< missed a full window
};

// StreamDetector against ReferenceStreamWindow (the literal forward-search
// LRU list and a pairwise-intersection sweep) on the same access sequence,
// compared after every sweep. Halfway, the detector is replaced by a fresh
// one restored from its state, which must carry on identically.
WindowOutcomes expect_matches_reference(
    const std::string& name, const std::vector<FedAccess>& accesses) {
  WindowOutcomes outcomes;
  // Caps each run at this many sweeps, so sweep_every = 1 stays cheap.
  constexpr std::uint64_t kMaxSweeps = 4096;
  for (const int window : {1, 2, 64}) {
    for (const std::uint64_t every : {1u, 7u, 4096u}) {
      StreamDetectorConfig config;
      config.window_pages = window;
      config.sweep_every = every;
      const std::string arm = name + " window " + std::to_string(window) +
                              " every " + std::to_string(every);
      const std::size_t count = static_cast<std::size_t>(
          std::min<std::uint64_t>(accesses.size(), kMaxSweeps * every));
      auto detector = std::make_unique<StreamDetector>(8, config);
      ReferenceStreamWindow reference(8, config);
      for (std::size_t i = 0; i < count; ++i) {
        if (i == count / 2) {
          auto resumed = std::make_unique<StreamDetector>(8, config);
          resumed->restore(detector->state());
          detector = std::move(resumed);
        }
        if (window == 64 && every == 4096) {
          const auto& w =
              reference.windows()[static_cast<std::size_t>(accesses[i].thread)];
          if (!w.empty() && w.back() == accesses[i].page) {
            ++outcomes.repeats;
          } else if (std::find(w.begin(), w.end(), accesses[i].page) !=
                     w.end()) {
            ++outcomes.deeper;
          } else if (w.size() == 64) {
            ++outcomes.evictions;
          }
        }
        const std::uint64_t before = detector->sweeps();
        detector->feed(accesses[i].thread, accesses[i].page);
        reference.feed(accesses[i].thread, accesses[i].page);
        if (detector->sweeps() == before) continue;
        EXPECT_EQ(detector->sweeps(), reference.sweeps()) << arm << " @" << i;
        EXPECT_TRUE(detector->matrix() == reference.matrix())
            << arm << " @" << i;
        EXPECT_EQ(detector->state().windows, reference.windows())
            << arm << " @" << i;
        if (::testing::Test::HasFailure()) return outcomes;
      }
      EXPECT_EQ(detector->sweeps(), reference.sweeps()) << arm;
      EXPECT_EQ(detector->events(), reference.events()) << arm;
      EXPECT_EQ(detector->state().windows, reference.windows()) << arm;
    }
  }
  return outcomes;
}

TEST(StreamDetectorDifferential, RecordedNpbStreamsMatchReference) {
  WindowOutcomes total;
  for (const std::string& app : npb_workload_names()) {
    if (app == "EP") continue;
    const std::vector<FedAccess> accesses = recorded_accesses(app);
    const WindowOutcomes o = expect_matches_reference(app, accesses);
    if (HasFailure()) return;
    total.repeats += o.repeats;
    total.deeper += o.deeper;
    total.evictions += o.evictions;
  }
  // The streams reach every path of feed(): the O(1) repeat, the reverse
  // search's hits, and evictions from full windows.
  EXPECT_GT(total.repeats, 0u);
  EXPECT_GT(total.deeper, 0u);
  EXPECT_GT(total.evictions, 0u);
}

TEST(StreamDetectorDifferential, UniformRandomPagesMatchReference) {
  const WindowOutcomes o =
      expect_matches_reference("random", random_accesses(40000));
  EXPECT_EQ(o.repeats, 0u);
  EXPECT_GT(o.deeper, 0u);
  EXPECT_GT(o.evictions, 0u);
}

// ---------------------------------------------------------------------------
// DecisionCache.

CommMatrix paired_matrix(std::uint64_t strong, std::uint64_t weak) {
  CommMatrix m(4);
  m.add(0, 1, strong);
  m.add(2, 3, strong);
  m.add(0, 2, weak);
  m.add(1, 3, weak);
  return m;
}

TEST(DecisionCache, CachesUntilDrift) {
  Topology topology{MachineConfig::harpertown()};
  MappingConfig mapping_config;
  DecisionCacheConfig config;
  config.drift_threshold = 0.90;
  DecisionCache cache(config);
  EXPECT_FALSE(cache.has_decision());

  const CommMatrix m = paired_matrix(1000, 10);
  const auto first = cache.decide(m, topology, mapping_config);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_FALSE(first->degraded);
  EXPECT_EQ(cache.rematches(), 1u);

  // Identical matrix: served from the cache, no re-match.
  const auto again = cache.decide(m, topology, mapping_config);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->epoch, 1u);
  EXPECT_EQ(again->mapping, first->mapping);
  EXPECT_EQ(cache.rematches(), 1u);

  // Scaling every entry keeps the shape (cosine similarity 1): no drift.
  const auto scaled = cache.decide(paired_matrix(2000, 20), topology,
                                   mapping_config);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_EQ(scaled->epoch, 1u);

  // Inverting the sharing structure drifts past any sane threshold.
  CommMatrix flipped(4);
  flipped.add(0, 2, 1000);
  flipped.add(1, 3, 1000);
  const auto refreshed = cache.decide(flipped, topology, mapping_config);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(refreshed->epoch, 2u);
  EXPECT_EQ(cache.rematches(), 2u);
}

TEST(DecisionCache, DegenerateInputDegradesButNeverOverwrites) {
  Topology topology{MachineConfig::harpertown()};
  MappingConfig mapping_config;
  DecisionCache cache;

  // Nothing cached yet: a degenerate matrix is a structured failure.
  const CommMatrix empty(4);
  const auto miss = cache.decide(empty, topology, mapping_config);
  ASSERT_FALSE(miss.has_value());
  EXPECT_EQ(miss.error().code, ErrorCode::kDegenerateMatrix);

  const auto good = cache.decide(paired_matrix(500, 5), topology,
                                 mapping_config);
  ASSERT_TRUE(good.has_value());

  // Degenerate input after a good decision: stale placement, flagged.
  const auto degraded = cache.decide(empty, topology, mapping_config);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->epoch, good->epoch);
  EXPECT_EQ(degraded->mapping, good->mapping);
  EXPECT_EQ(cache.degraded_serves(), 1u);
}

TEST(DecisionCache, DegradedThenRecoveredResumesCleanService) {
  // The full outage arc (PR 10 satellite): good signal -> degenerate
  // stretch served degraded from the stale cache -> signal returns and the
  // very next read is clean again, re-matching only if the shape moved.
  Topology topology{MachineConfig::harpertown()};
  MappingConfig mapping_config;
  DecisionCache cache;

  const auto good = cache.decide(paired_matrix(500, 5), topology,
                                 mapping_config);
  ASSERT_TRUE(good.has_value());
  const std::uint64_t epoch = good->epoch;

  // Degraded stretch: every read serves the stale placement, flagged.
  const CommMatrix empty(4);
  for (int i = 0; i < 3; ++i) {
    const auto degraded = cache.decide(empty, topology, mapping_config);
    ASSERT_TRUE(degraded.has_value());
    EXPECT_TRUE(degraded->degraded);
    EXPECT_EQ(degraded->epoch, epoch);
    EXPECT_EQ(degraded->mapping, good->mapping);
  }
  EXPECT_EQ(cache.degraded_serves(), 3u);
  EXPECT_EQ(cache.rematches(), 1u);

  // Recovery with the same shape: clean serve, no re-match, epoch holds.
  const auto recovered = cache.decide(paired_matrix(500, 5), topology,
                                      mapping_config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_FALSE(recovered->degraded);
  EXPECT_EQ(recovered->epoch, epoch);
  EXPECT_EQ(cache.rematches(), 1u);

  // Recovery into a *different* shape: the first clean read re-matches.
  CommMatrix flipped(4);
  flipped.add(0, 2, 800);
  flipped.add(1, 3, 800);
  const auto refreshed = cache.decide(flipped, topology, mapping_config);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_FALSE(refreshed->degraded);
  EXPECT_EQ(refreshed->epoch, epoch + 1);
  EXPECT_EQ(cache.rematches(), 2u);
  // The degraded tally is history, not live state: it never resets.
  EXPECT_EQ(cache.degraded_serves(), 3u);
}

TEST(DecisionCache, SaturatedMatrixIsStructural) {
  Topology topology{MachineConfig::harpertown()};
  MappingConfig mapping_config;
  DecisionCache cache;
  CommMatrix pinned(4);
  pinned.add(0, 1, CommMatrix::kCounterMax);
  pinned.add(2, 3, 7);
  const auto r = cache.decide(pinned, topology, mapping_config);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kSaturatedMatrix);
}

TEST(DecisionCache, StateRoundTrips) {
  Topology topology{MachineConfig::harpertown()};
  MappingConfig mapping_config;
  DecisionCache cache;
  ASSERT_TRUE(cache.decide(paired_matrix(100, 1), topology, mapping_config)
                  .has_value());
  DecisionCache copy;
  copy.restore(cache.state());
  EXPECT_EQ(copy.state(), cache.state());
  EXPECT_EQ(copy.epoch(), cache.epoch());
  const auto served = copy.decide(paired_matrix(100, 1), topology,
                                  mapping_config);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->epoch, cache.epoch());
  EXPECT_GT(cache.memory_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Service lifecycle. Tenants stream small recorded NPB workloads.

constexpr int kThreads = 4;

ServiceConfig small_service_config() {
  ServiceConfig config;
  config.detector.window_pages = 32;
  config.detector.sweep_every = 512;
  return config;
}

std::vector<std::vector<std::uint8_t>> record_tenant(std::uint64_t seed) {
  WorkloadParams params;
  params.num_threads = kThreads;
  params.size_scale = 0.1;
  params.iter_scale = 0.1;
  return record_workload(*make_npb_workload("CG", params), seed);
}

/// Deterministically corrupts one buffer mid-stream: 0x04 is not a valid
/// record header (access bit clear, nonzero), so decoding must trip
/// kMalformedTrace at a stable byte offset.
void corrupt_buffer(std::vector<std::uint8_t>& bytes) {
  const std::size_t at = bytes.size() / 2;
  for (std::size_t i = 0; i < 8 && at + i < bytes.size(); ++i) {
    bytes[at + i] = 0x04;
  }
}

/// Feeds every tenant's buffers chunk by chunk, one chunk per thread per
/// tick, pumping between rounds — the serve driver's loop in miniature.
/// Backpressured chunks retry next tick; dead sessions are skipped.
void drain_all(MappingService& service, const std::vector<SessionId>& ids,
               const std::vector<std::vector<std::vector<std::uint8_t>>>& data,
               std::size_t chunk = 512) {
  std::vector<std::vector<std::size_t>> cursor(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    cursor[k].assign(data[k].size(), 0);
  }
  for (int guard = 0; guard < 200000; ++guard) {
    bool all_done = true;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Session* session = service.find(ids[k]);
      if (session == nullptr || session->status() == SessionStatus::kQuarantined ||
          session->status() == SessionStatus::kShed) {
        continue;
      }
      for (ThreadId t = 0; t < static_cast<ThreadId>(data[k].size()); ++t) {
        const std::vector<std::uint8_t>& buffer = data[k][t];
        std::size_t& pos = cursor[k][t];
        if (pos >= buffer.size()) continue;
        all_done = false;
        const std::size_t n = std::min(chunk, buffer.size() - pos);
        const auto r = service.ingest(ids[k], t, buffer.data() + pos, n);
        if (r.has_value()) {
          pos += n;
        } else if (r.error().code != ErrorCode::kBackpressure) {
          break;  // quarantined mid-loop; stop feeding this tenant
        }
      }
      if (session->status() == SessionStatus::kActive) all_done = false;
    }
    service.pump();
    if (all_done) {
      bool settled = true;
      for (const SessionId id : ids) {
        const Session* session = service.find(id);
        if (session != nullptr && session->status() == SessionStatus::kActive) {
          settled = false;
        }
      }
      if (settled) return;
    }
  }
  FAIL() << "drain_all did not settle";
}

TEST(MappingService, AdmissionControlRejectsBeforeDegrading) {
  ServiceConfig config = small_service_config();
  config.max_sessions = 2;
  MappingService service(config);

  const auto a = service.open_session("a", kThreads);
  const auto b = service.open_session("b", kThreads);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);

  // Third tenant: refused at the cap, existing sessions untouched.
  const auto c = service.open_session("c", kThreads);
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error().code, ErrorCode::kAdmissionRejected);
  EXPECT_EQ(service.sessions_rejected(), 1u);
  EXPECT_EQ(service.live_sessions(), 2u);
  EXPECT_EQ(service.find(*a)->status(), SessionStatus::kActive);

  // Bad thread counts are usage errors, not admission pressure.
  EXPECT_EQ(service.open_session("d", 0).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.open_session("d", 10000).error().code,
            ErrorCode::kInvalidArgument);

  // Closing frees the slot.
  ASSERT_TRUE(service.close_session(*a).has_value());
  EXPECT_TRUE(service.open_session("c", kThreads).has_value());
  EXPECT_FALSE(service.close_session(9999).has_value());
}

TEST(MappingService, MemoryBudgetsRefuseUnfittableSessions) {
  // Measure one session's fixed footprint (detector + cache, empty queues)
  // so the budgets below can be sized right at the edge.
  MappingService probe(small_service_config());
  ASSERT_TRUE(probe.open_session("probe", kThreads).has_value());
  const std::size_t fixed = probe.memory_bytes();
  ASSERT_GT(fixed, 0u);

  // Per-session budget that cannot hold the fixed state plus a full queue:
  // refused before the service holds any state for the tenant.
  ServiceConfig tight = small_service_config();
  tight.session.queue_bytes = 1024;
  tight.session.budget_bytes = std::max<std::size_t>(fixed, 1024);
  tight.total_budget_bytes = tight.session.budget_bytes;
  MappingService service(tight);
  const auto r = service.open_session("a", kThreads);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kAdmissionRejected);
  EXPECT_EQ(service.total_sessions(), 0u);
  EXPECT_EQ(service.memory_bytes(), 0u);

  // Fleet budget that fits exactly one session's worst case: the second
  // tenant is refused while the first keeps running untouched.
  ServiceConfig fleet = small_service_config();
  fleet.session.queue_bytes = 1024;
  fleet.session.budget_bytes = fixed + 2048;
  fleet.total_budget_bytes = fleet.session.budget_bytes;
  MappingService pair(fleet);
  const auto first = pair.open_session("a", kThreads);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  const auto second = pair.open_session("b", kThreads);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::kAdmissionRejected);
  EXPECT_NE(second.error().message.find("reject-new"), std::string::npos);
  EXPECT_EQ(pair.find(*first)->status(), SessionStatus::kActive);
  EXPECT_EQ(pair.live_sessions(), 1u);
}

TEST(MappingService, BackpressureIsAllOrNothing) {
  ServiceConfig config = small_service_config();
  config.session.queue_bytes = 256;
  MappingService service(config);
  const SessionId id = *service.open_session("a", kThreads);
  const auto buffers = record_tenant(/*seed=*/11);

  // Fill the queue to the brim...
  ASSERT_TRUE(service.ingest(id, 0, buffers[0].data(), 256).has_value());
  const std::size_t queued = service.find(id)->queued_bytes();
  EXPECT_EQ(queued, 256u);

  // ...then one more byte must be refused whole, taking nothing.
  const auto refused = service.ingest(id, 1, buffers[1].data(), 64);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::kBackpressure);
  EXPECT_EQ(service.find(id)->queued_bytes(), queued);
  EXPECT_EQ(service.backpressure_signals(), 1u);

  // A pump drains the queue; the refused chunk then fits.
  service.pump();
  EXPECT_LT(service.find(id)->queued_bytes(), queued);
  EXPECT_TRUE(service.ingest(id, 1, buffers[1].data(), 64).has_value());

  // Unknown thread: a usage error, and no quarantine.
  EXPECT_EQ(service.ingest(id, kThreads, buffers[0].data(), 8).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.find(id)->status(), SessionStatus::kActive);
}

TEST(MappingService, DeadlineBoundsPerPumpWork) {
  ServiceConfig config = small_service_config();
  config.session.deadline_events = 64;
  config.session.queue_bytes = 64 * 1024;
  MappingService service(config);
  const SessionId id = *service.open_session("a", kThreads);
  const auto buffers = record_tenant(/*seed=*/12);
  for (ThreadId t = 0; t < kThreads; ++t) {
    const std::size_t n = std::min<std::size_t>(buffers[t].size(), 8 * 1024);
    ASSERT_TRUE(service.ingest(id, t, buffers[t].data(), n).has_value());
  }
  const std::uint64_t events = service.pump();
  EXPECT_GT(events, 0u);
  EXPECT_LE(events, 64u);
  EXPECT_EQ(service.find(id)->events_processed(), events);
}

TEST(MappingService, CorruptStreamQuarantinesWithStructuredReason) {
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("acme", kThreads);
  auto buffers = record_tenant(/*seed=*/13);
  corrupt_buffer(buffers[2]);
  drain_all(service, {id}, {buffers});

  const Session* session = service.find(id);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->status(), SessionStatus::kQuarantined);
  const svc::QuarantineReason& reason = session->quarantine_reason();
  EXPECT_EQ(reason.code, ErrorCode::kMalformedTrace);
  EXPECT_EQ(reason.thread, 2);
  EXPECT_NE(reason.message.find("at byte"), std::string::npos);
  EXPECT_EQ(service.sessions_quarantined(), 1u);

  // Quarantine drops the queues (memory back to the fleet) and fences the
  // session off from every verb.
  EXPECT_EQ(session->queued_bytes(), 0u);
  EXPECT_EQ(service.ingest(id, 0, buffers[0].data(), 8).error().code,
            ErrorCode::kSessionQuarantined);
  EXPECT_EQ(service.decision(id).error().code,
            ErrorCode::kSessionQuarantined);

  const std::vector<QuarantineReport> reports = service.quarantine_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, id);
  EXPECT_EQ(reports[0].tenant, "acme");
  EXPECT_EQ(reports[0].reason, reason);
}

TEST(MappingService, TrailingBytesAfterEndMarkerAreCorruption) {
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("a", kThreads);
  const auto buffers = record_tenant(/*seed=*/14);
  drain_all(service, {id}, {buffers});
  ASSERT_EQ(service.find(id)->status(), SessionStatus::kComplete);

  // The stream ended; more bytes on any thread is stream corruption.
  const std::uint8_t extra[4] = {0x00, 0x00, 0x00, 0x00};
  const auto r = service.ingest(id, 0, extra, sizeof extra);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(service.find(id)->status(), SessionStatus::kQuarantined);
  EXPECT_EQ(service.find(id)->quarantine_reason().code,
            ErrorCode::kMalformedTrace);
  EXPECT_NE(service.find(id)->quarantine_reason().message.find(
                "trailing bytes"),
            std::string::npos);
}

TEST(MappingService, TrailingBytesInTheEndMarkerChunkAreCorruption) {
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("a", kThreads);
  auto buffers = record_tenant(/*seed=*/14);
  buffers[1].insert(buffers[1].end(), {0x00, 0x00});
  // drain_all's 512-byte chunks put the end marker and both extra bytes in
  // the thread's final chunk.
  constexpr std::size_t kChunk = 512;
  ASSERT_GE(buffers[1].size() - 3, (buffers[1].size() - 1) / kChunk * kChunk);
  drain_all(service, {id}, {buffers}, kChunk);

  const Session* session = service.find(id);
  EXPECT_EQ(session->status(), SessionStatus::kQuarantined);
  EXPECT_EQ(session->quarantine_reason().code, ErrorCode::kMalformedTrace);
  EXPECT_EQ(session->quarantine_reason().thread, 1);
  EXPECT_NE(session->quarantine_reason().message.find("trailing bytes"),
            std::string::npos);
  EXPECT_EQ(session->queued_bytes(), 0u);
}

TEST(MappingService, CompletedSessionServesCachedDecisions) {
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("a", kThreads);
  drain_all(service, {id}, {record_tenant(/*seed=*/15)});
  ASSERT_EQ(service.find(id)->status(), SessionStatus::kComplete);

  const auto first = service.decision(id);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  EXPECT_EQ(static_cast<int>(first->mapping.size()), kThreads);
  EXPECT_GE(first->epoch, 1u);

  // Nothing new arrived: the second read must be the cached placement.
  const auto second = service.decision(id);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
}

TEST(MappingService, TightenedBudgetShedsNewestFirst) {
  ServiceConfig config = small_service_config();
  MappingService service(config);
  const SessionId a = *service.open_session("old", kThreads);
  const SessionId b = *service.open_session("mid", kThreads);
  const SessionId c = *service.open_session("new", kThreads);
  ASSERT_LT(a, b);
  ASSERT_LT(b, c);

  // One live session's fixed state sits well above zero; squeeze until only
  // the oldest fits. Shedding must walk newest-admitted-first.
  const std::size_t per_session = service.memory_bytes() / 3;
  service.set_total_budget_bytes(per_session + per_session / 2);
  EXPECT_EQ(service.find(a)->status(), SessionStatus::kActive);
  EXPECT_EQ(service.find(b)->status(), SessionStatus::kShed);
  EXPECT_EQ(service.find(c)->status(), SessionStatus::kShed);
  EXPECT_EQ(service.sessions_shed(), 2u);
  EXPECT_LE(service.memory_bytes(), per_session + per_session / 2);

  // Shed sessions surface in the structured report alongside quarantines.
  const auto reports = service.quarantine_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].status, SessionStatus::kShed);
  EXPECT_EQ(reports[0].id, b);
  EXPECT_EQ(reports[1].id, c);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

TEST(MappingService, CheckpointResumeIsBitIdentical) {
  const auto buffers = record_tenant(/*seed=*/21);

  // Reference: one service, fed start to finish.
  MappingService reference(small_service_config());
  const SessionId ref_id = *reference.open_session("t", kThreads);
  drain_all(reference, {ref_id}, {buffers});
  const auto ref_decision = reference.decision(ref_id);
  ASSERT_TRUE(ref_decision.has_value()) << ref_decision.error().message;

  // Interrupted: feed a prefix, seal, restore into a fresh service, feed
  // the rest. Mapping, epoch, event counts and detector state must match.
  MappingService first(small_service_config());
  const SessionId id = *first.open_session("t", kThreads);
  std::vector<std::size_t> cursor(kThreads, 0);
  for (int round = 0; round < 20; ++round) {
    for (ThreadId t = 0; t < kThreads; ++t) {
      if (cursor[t] >= buffers[t].size()) continue;
      const std::size_t n =
          std::min<std::size_t>(512, buffers[t].size() - cursor[t]);
      if (first.ingest(id, t, buffers[t].data() + cursor[t], n).has_value()) {
        cursor[t] += n;
      }
    }
    first.pump();
  }
  const std::string sealed = first.serialize("feeder-extra");

  MappingService resumed(small_service_config());
  const auto extra = resumed.restore(sealed);
  ASSERT_TRUE(extra.has_value()) << extra.error().message;
  EXPECT_EQ(*extra, "feeder-extra");
  EXPECT_EQ(resumed.tick(), first.tick());
  ASSERT_NE(resumed.find(id), nullptr);
  EXPECT_EQ(resumed.find(id)->state(), first.find(id)->state());

  // Continue feeding the resumed service from the recorded cursors.
  std::vector<std::vector<std::size_t>> rest_cursor{cursor};
  std::vector<std::vector<std::vector<std::uint8_t>>> rest_data{buffers};
  for (int guard = 0; guard < 200000; ++guard) {
    bool done = true;
    for (ThreadId t = 0; t < kThreads; ++t) {
      std::size_t& pos = rest_cursor[0][t];
      if (pos >= buffers[t].size()) continue;
      done = false;
      const std::size_t n =
          std::min<std::size_t>(512, buffers[t].size() - pos);
      if (resumed.ingest(id, t, buffers[t].data() + pos, n).has_value()) {
        pos += n;
      }
    }
    resumed.pump();
    if (done && resumed.find(id)->status() != SessionStatus::kActive) break;
  }
  ASSERT_EQ(resumed.find(id)->status(), SessionStatus::kComplete);

  const auto decision = resumed.decision(id);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->mapping, ref_decision->mapping);
  EXPECT_EQ(decision->epoch, ref_decision->epoch);
  EXPECT_EQ(resumed.find(id)->events_processed(),
            reference.find(ref_id)->events_processed());
  EXPECT_EQ(resumed.find(id)->detector().matrix(),
            reference.find(ref_id)->detector().matrix());
}

TEST(MappingService, RestoreRejectsDamageAndConfigSkew) {
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("t", kThreads);
  const auto buffers = record_tenant(/*seed=*/22);
  ASSERT_TRUE(service.ingest(id, 0, buffers[0].data(), 512).has_value());
  service.pump();
  std::string sealed = service.serialize();

  // Flipped payload byte: the envelope must catch it.
  std::string damaged = sealed;
  damaged[damaged.size() / 2] ^= 0x40;
  MappingService fresh(small_service_config());
  const auto corrupt = fresh.restore(damaged);
  ASSERT_FALSE(corrupt.has_value());
  EXPECT_EQ(corrupt.error().code, ErrorCode::kCorruptCheckpoint);

  // A differently shaped service must refuse the snapshot outright.
  ServiceConfig other = small_service_config();
  other.detector.sweep_every = 1024;
  MappingService skewed(other);
  const auto mismatch = skewed.restore(sealed);
  ASSERT_FALSE(mismatch.has_value());
  EXPECT_EQ(mismatch.error().code, ErrorCode::kCheckpointMismatch);
}

TEST(MappingService, SaveLoadRoundTripsThroughFiles) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "tlbmap_service_test.ckpt";
  MappingService service(small_service_config());
  const SessionId id = *service.open_session("t", kThreads);
  const auto buffers = record_tenant(/*seed=*/23);
  ASSERT_TRUE(service.ingest(id, 0, buffers[0].data(), 256).has_value());
  service.pump();
  ASSERT_TRUE(service.save(path, "blob").has_value());

  MappingService loaded(small_service_config());
  const auto extra = loaded.load(path);
  ASSERT_TRUE(extra.has_value()) << extra.error().message;
  EXPECT_EQ(*extra, "blob");
  EXPECT_EQ(loaded.find(id)->state(), service.find(id)->state());
  std::filesystem::remove(path);

  EXPECT_FALSE(
      loaded.load(path.parent_path() / "does_not_exist.ckpt").has_value());
}

// ---------------------------------------------------------------------------
// The fault-isolation differential (the Sec. 16 acceptance criterion): with
// one tenant's stream corrupted, exactly that session is quarantined, and
// every surviving tenant's mapping decision AND its evaluated MachineStats
// are bit-identical to a run where the faulty neighbour streamed cleanly.

TEST(MappingService, FaultIsolationDifferential) {
  std::vector<std::vector<std::vector<std::uint8_t>>> clean;
  for (std::uint64_t k = 0; k < 3; ++k) {
    clean.push_back(record_tenant(/*seed=*/31 + k));
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> faulty = clean;
  corrupt_buffer(faulty[1][0]);

  const auto run = [](const std::vector<std::vector<std::vector<std::uint8_t>>>&
                          data) {
    auto service = std::make_unique<MappingService>(small_service_config());
    std::vector<SessionId> ids;
    for (std::size_t k = 0; k < data.size(); ++k) {
      ids.push_back(*service->open_session("tenant-" + std::to_string(k),
                                           kThreads));
    }
    drain_all(*service, ids, data);
    return std::make_pair(std::move(service), ids);
  };

  auto [with_fault, fault_ids] = run(faulty);
  auto [without_fault, clean_ids] = run(clean);

  // Exactly the corrupted tenant is quarantined; nobody else.
  EXPECT_EQ(with_fault->find(fault_ids[0])->status(), SessionStatus::kComplete);
  EXPECT_EQ(with_fault->find(fault_ids[1])->status(),
            SessionStatus::kQuarantined);
  EXPECT_EQ(with_fault->find(fault_ids[2])->status(), SessionStatus::kComplete);
  EXPECT_EQ(with_fault->sessions_quarantined(), 1u);
  EXPECT_EQ(without_fault->sessions_quarantined(), 0u);

  Pipeline pipeline{MachineConfig::harpertown()};
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("tenant " + std::to_string(k));
    const Session* survivor = with_fault->find(fault_ids[k]);
    const Session* baseline = without_fault->find(clean_ids[k]);

    // The survivor decoded exactly the same stream either way.
    EXPECT_EQ(survivor->events_processed(), baseline->events_processed());
    EXPECT_EQ(survivor->barriers_seen(), baseline->barriers_seen());
    EXPECT_EQ(survivor->detector().matrix(), baseline->detector().matrix());

    const auto a = with_fault->decision(fault_ids[k]);
    const auto b = without_fault->decision(clean_ids[k]);
    ASSERT_TRUE(a.has_value()) << a.error().message;
    ASSERT_TRUE(b.has_value()) << b.error().message;
    EXPECT_EQ(a->mapping, b->mapping);
    EXPECT_EQ(a->epoch, b->epoch);
    EXPECT_EQ(a->degraded, b->degraded);

    // And the decisions evaluate to bit-identical machine statistics.
    RecordedWorkload workload_a{clean[k]};
    RecordedWorkload workload_b{clean[k]};
    const MachineStats stats_a =
        pipeline.evaluate(workload_a, a->mapping, /*seed=*/1);
    const MachineStats stats_b =
        pipeline.evaluate(workload_b, b->mapping, /*seed=*/1);
    EXPECT_EQ(stats_a, stats_b);
  }
}

// ---------------------------------------------------------------------------
// The serve driver.

TEST(Serve, MultiprogramTenantHoldsEveryRecordedStream) {
  // mp:sp+cg at 4 threads per app records 8 streams; the tenant's session
  // must open with all 8, drain them and hold a decision for each thread.
  svc::ServeOptions options;
  options.app = "mp:sp+cg";
  options.threads = 4;
  options.tenants = 1;
  options.size_scale = 0.05;
  options.iter_scale = 0.05;
  const svc::ServeOutcome outcome = svc::run_serve(options, nullptr, nullptr);
  EXPECT_EQ(outcome.exit_code, 0) << outcome.error;
  EXPECT_TRUE(outcome.quarantines.empty());
  ASSERT_EQ(outcome.tenants.size(), 1u);
  EXPECT_EQ(outcome.tenants[0].status, SessionStatus::kComplete);
  EXPECT_TRUE(outcome.tenants[0].has_decision);
  EXPECT_EQ(outcome.tenants[0].mapping.size(), 8u);

  // Two apps at 8 threads each need 16 cores; the 8-core machine has 8.
  options.threads = 8;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace tlbmap
