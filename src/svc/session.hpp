// One tenant of the mapping service (DESIGN.md Sec. 16).
//
// A session owns everything a tenant can corrupt, stall or bloat: one
// TraceStreamDecoder per client thread (whose internal buffer *is* the
// bounded ingest queue), an incremental StreamDetector, a mapping
// DecisionCache, and the quarantine state machine around them.
// Nothing in here is shared across sessions — fault isolation falls out of
// ownership, and the service-level differential test (one tenant corrupted,
// every other tenant bit-identical) is the proof.
//
// Lifecycle:
//
//   kActive ──(all thread streams hit their end marker)──▶ kComplete
//      │
//      └─(decode error / saturated matrix / oversize record)─▶ kQuarantined
//
// plus kShed, entered only from the service's deterministic load-shedding
// when an operator tightens the total budget. Quarantined and shed sessions
// drop their queues immediately (the memory goes back to the fleet) but
// keep their structured reason for the final report; completed sessions
// keep serving cached decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/expected.hpp"
#include "detect/stream_detector.hpp"
#include "mapping/decision_cache.hpp"
#include "mapping/strategy.hpp"
#include "sim/topology.hpp"
#include "sim/trace_file.hpp"

namespace tlbmap::svc {

using SessionId = std::uint64_t;

enum class SessionStatus : std::uint32_t {
  kActive,       ///< ingesting and/or decoding
  kComplete,     ///< every thread stream ended cleanly; decisions cached
  kQuarantined,  ///< fault-isolated; see QuarantineReason
  kShed,         ///< evicted by deterministic load-shedding
};

const char* to_string(SessionStatus status);

/// Why a session was fenced off. `tick` is the service pump tick at which
/// the fault tripped; `thread` names the offending stream when one exists
/// (kNoThread for matrix-level faults).
struct QuarantineReason {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;
  std::uint64_t tick = 0;
  ThreadId thread = kNoThread;

  bool operator==(const QuarantineReason&) const = default;
};

/// Per-session resource fences, fixed at admission.
struct SessionLimits {
  /// Undecoded bytes the session may hold across all thread queues before
  /// ingest signals backpressure.
  std::size_t queue_bytes = 64 * 1024;
  /// Ceiling on the session's total resident estimate (detector + cache +
  /// queues). Admission refuses sessions whose fixed state alone cannot
  /// fit; at runtime the queue bound keeps the variable part under it.
  std::size_t budget_bytes = 8 * 1024 * 1024;
  /// Decode budget per service pump — the per-session deadline: a
  /// pathological stream exhausts its slice and yields, it cannot starve
  /// the other tenants.
  std::uint64_t deadline_events = 8192;
};

/// What ingest() reports back to a well-behaved client.
struct IngestResult {
  std::size_t accepted_bytes = 0;
  std::size_t queued_bytes = 0;  ///< post-ingest total across threads
};

class Session {
 public:
  Session(SessionId id, std::string tenant, int num_threads, int page_shift,
          SessionLimits limits, StreamDetectorConfig detector_config,
          DecisionCacheConfig cache_config);

  SessionId id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  int num_threads() const { return detector_.num_threads(); }
  SessionStatus status() const { return status_; }
  const QuarantineReason& quarantine_reason() const { return reason_; }
  const SessionLimits& limits() const { return limits_; }

  /// Appends raw TLBT bytes to one thread's queue. All-or-nothing: a chunk
  /// that would overflow the session queue is refused whole with
  /// kBackpressure (retry after a pump drains the queue). Feeding a stream
  /// past its end marker is stream corruption and quarantines the session.
  Expected<IngestResult> ingest(ThreadId thread, const std::uint8_t* data,
                                std::size_t size, std::uint64_t tick);

  /// Decodes up to limits().deadline_events queued events into the
  /// detector, round-robin across threads. Returns events processed. A
  /// malformed/truncated/corrupt record quarantines the session (reason
  /// carries the decoder's structured error with its byte offset) and
  /// returns what was processed before the trip.
  std::uint64_t pump(std::uint64_t tick);

  /// Serves the tenant's mapping decision from the cache, re-matching on
  /// drift. Degenerate detection with nothing cached returns the structured
  /// error (the next read decides again on whatever the matrix holds then);
  /// a saturated matrix quarantines. Never recomputes on the read path when
  /// the cache is fresh.
  Expected<MappingDecision> decision(const Topology& topology,
                                     const MappingConfig& mapping_config,
                                     std::uint64_t tick);

  /// Service-initiated eviction (load shedding) or fault isolation.
  void shed(std::uint64_t tick);
  void quarantine(Error error, std::uint64_t tick, ThreadId thread);

  /// Undecoded bytes across all thread queues.
  std::size_t queued_bytes() const;
  /// Deterministic resident estimate: detector + cache + queues.
  std::size_t memory_bytes() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t bytes_ingested() const { return bytes_ingested_; }
  std::uint64_t barriers_seen() const { return barriers_seen_; }

  const StreamDetector& detector() const { return detector_; }
  const DecisionCache& cache() const { return cache_; }

  // --- checkpoint plumbing (codecs live in svc/service.cpp) ---
  struct State {
    SessionId id = 0;
    std::string tenant;
    std::uint32_t num_threads = 0;
    SessionStatus status = SessionStatus::kActive;
    QuarantineReason reason;
    std::vector<TraceStreamDecoder::State> decoders;
    StreamDetectorState detector{};
    DecisionCacheState cache{};
    std::uint64_t events_processed = 0;
    std::uint64_t bytes_ingested = 0;
    std::uint64_t barriers_seen = 0;
    /// Round-robin pump cursor: sweeps fire on the session-global event
    /// count, so the cross-thread decode order must survive a resume for
    /// the matrix to stay bit-identical.
    std::int32_t next_thread = 0;

    bool operator==(const State&) const = default;
  };
  State state() const;
  /// Throws std::invalid_argument on shape mismatch (wrong thread count).
  void restore(const State& state);

 private:
  /// Marks the session complete once every decoder has consumed its end
  /// marker and no bytes remain queued; runs the final sweep so the last
  /// partial window still lands in the matrix.
  void maybe_complete();

  SessionId id_;
  std::string tenant_;
  int page_shift_;
  SessionLimits limits_;

  SessionStatus status_ = SessionStatus::kActive;
  QuarantineReason reason_;

  std::vector<TraceStreamDecoder> decoders_;  ///< one per client thread
  StreamDetector detector_;
  DecisionCache cache_;

  std::uint64_t events_processed_ = 0;
  std::uint64_t bytes_ingested_ = 0;
  std::uint64_t barriers_seen_ = 0;
  int next_thread_ = 0;  ///< round-robin pump cursor
};

}  // namespace tlbmap::svc
