// Mapping-as-a-service host (DESIGN.md Sec. 16).
//
// The batch pipeline answers "where should this one application's threads
// go" after the run; the MappingService answers it *while many tenants
// run*: each tenant opens a session, streams its per-thread TLBT traces in
// fragments, and reads back placement decisions computed from the same
// sharing heuristics — incrementally, behind an epoch-tagged cache.
//
// Hardening is the point, not an add-on:
//   - admission control: a fixed session cap plus per-session and fleet
//     memory budgets, enforced *before* a tenant holds any state; the
//     shedding discipline is reject-new-before-degrade-existing;
//   - backpressure: bounded per-session ingest queues refuse whole chunks
//     with kBackpressure instead of buffering unboundedly;
//   - deadlines: every pump gives each session a bounded decode slice, so
//     one pathological stream cannot starve the fleet;
//   - fault isolation: a tenant tripping the error taxonomy (corrupt
//     trace, saturated matrix, matcher failure) is quarantined with a
//     structured reason; every other session's decisions are bit-identical
//     to a run where the faulty tenant never existed (test_service.cpp
//     proves the differential);
//   - checkpointing: the whole service state seals into a TLBK envelope
//     (same format discipline as suite checkpoints), so a SIGTERM'd daemon
//     resumes every session mid-stream, deterministically.
//
// Everything is single-threaded and tick-driven: pump() is the only place
// decoding happens, sessions advance in id order, and a decision is a pure
// function of the session's matrix and cache — two services fed the same
// bytes and read in the same order are bit-identical, which is what makes
// the robustness properties testable.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/expected.hpp"
#include "detect/stream_detector.hpp"
#include "mapping/decision_cache.hpp"
#include "mapping/strategy.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"
#include "sim/topology.hpp"
#include "svc/session.hpp"

namespace tlbmap::svc {

struct ServiceConfig {
  /// Machine whose topology decisions target (also supplies page_shift for
  /// the stream detectors).
  MachineConfig machine = MachineConfig::harpertown();

  /// Hard cap on concurrently live (active or complete) sessions.
  int max_sessions = 64;
  /// Per-session fences applied at admission.
  SessionLimits session{};
  /// Fleet-wide memory ceiling across live sessions (queues included).
  /// Admission refuses a session that could not fit even with every
  /// existing queue full; set_total_budget_bytes() sheds newest-first when
  /// an operator tightens it at runtime.
  std::size_t total_budget_bytes = 64 * 1024 * 1024;

  StreamDetectorConfig detector{};
  DecisionCacheConfig cache{};
  MappingConfig mapping{};

  /// Throws std::invalid_argument on non-positive caps or budgets smaller
  /// than one session's queue.
  void validate() const;
};

/// FNV-1a over the service-shape fields, sealed into checkpoint envelopes:
/// a snapshot resumes only into a service configured identically.
std::uint64_t service_config_hash(const ServiceConfig& config);

/// One quarantined or shed session, for the structured end-of-run report.
struct QuarantineReport {
  SessionId id = 0;
  std::string tenant;
  SessionStatus status = SessionStatus::kQuarantined;
  QuarantineReason reason;

  bool operator==(const QuarantineReport&) const = default;
};

class MappingService {
 public:
  explicit MappingService(ServiceConfig config);

  const ServiceConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }

  /// Wires metrics/tracing (svc.* counters, per-tenant labels). Null (the
  /// default) keeps every hook to one comparison.
  void set_observability(obs::ObsContext* obs) { obs_ = obs; }

  /// Admits a tenant or refuses with kAdmissionRejected (session cap, the
  /// per-session budget cannot hold the fixed detector state, or the fleet
  /// budget could not absorb a full session) / kInvalidArgument (thread
  /// count outside [1, cores]). Admission never disturbs existing sessions:
  /// reject-new comes strictly before degrade-existing.
  Expected<SessionId> open_session(const std::string& tenant,
                                   int num_threads);

  /// Appends trace bytes to one session stream. kBackpressure when the
  /// chunk does not fit the session queue (nothing is taken); quarantines
  /// the session on framing corruption.
  Expected<IngestResult> ingest(SessionId id, ThreadId thread,
                                const std::uint8_t* data, std::size_t size);
  Expected<IngestResult> ingest(SessionId id, ThreadId thread,
                                const std::vector<std::uint8_t>& bytes) {
    return ingest(id, thread, bytes.data(), bytes.size());
  }

  /// One service tick: every active session decodes up to its deadline
  /// slice (in session-id order — the determinism contract). Returns events
  /// decoded fleet-wide.
  std::uint64_t pump();

  /// The tenant's current placement decision (cached unless drifted).
  Expected<MappingDecision> decision(SessionId id);

  /// Removes a session entirely (any state). kInvalidArgument if unknown.
  Expected<void> close_session(SessionId id);

  const Session* find(SessionId id) const;
  std::uint64_t tick() const { return tick_; }
  /// Live = admitted and not quarantined/shed.
  std::size_t live_sessions() const;
  std::size_t total_sessions() const { return sessions_.size(); }
  /// Resident estimate across live sessions (quarantined/shed sessions
  /// dropped their queues and count nothing).
  std::size_t memory_bytes() const;

  /// Tightens (or relaxes) the fleet budget; when the live estimate
  /// exceeds the new ceiling, sessions are shed newest-admitted-first
  /// until it fits — deterministic, and existing old tenants degrade last.
  void set_total_budget_bytes(std::size_t bytes);

  /// Every quarantined or shed session with its structured reason, in
  /// session-id order.
  std::vector<QuarantineReport> quarantine_reports() const;

  // Lifetime counters (also exported as svc.* metrics).
  std::uint64_t sessions_admitted() const { return admitted_; }
  std::uint64_t sessions_rejected() const { return rejected_; }
  std::uint64_t sessions_quarantined() const { return quarantined_; }
  std::uint64_t sessions_shed() const { return shed_; }
  std::uint64_t backpressure_signals() const { return backpressure_; }

  // --- checkpointing (TLBK envelope, service_config_hash-tagged) ---

  /// Serializes the full service state (every session mid-stream) plus an
  /// opaque caller blob (`extra` — the serve driver stores its feeder
  /// cursors there) into a sealed envelope.
  std::string serialize(std::string_view extra = {}) const;

  /// Restores this service from serialize() output. The service must be
  /// freshly constructed with the *same config* (enforced by the envelope
  /// hash). Returns the embedded `extra` blob. kCorruptCheckpoint /
  /// kCheckpointMismatch on damage or config skew.
  Expected<std::string> restore(std::string_view bytes);

  /// File helpers over serialize()/restore() via atomic_write_file.
  Expected<void> save(const std::filesystem::path& path,
                      std::string_view extra = {}) const;
  Expected<std::string> load(const std::filesystem::path& path);

 private:
  Session* find_mut(SessionId id);
  void shed_to_budget();

  ServiceConfig config_;
  Topology topology_;
  obs::ObsContext* obs_ = nullptr;

  std::map<SessionId, Session> sessions_;  ///< id order = determinism order
  SessionId next_id_ = 1;
  std::uint64_t tick_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t backpressure_ = 0;
};

}  // namespace tlbmap::svc
