// The `tlbmap serve` daemon driver (DESIGN.md Sec. 16): hosts a
// MappingService fed by N synthetic tenants, each streaming a recorded NPB
// trace in fragments, and runs the tick loop until every tenant completes
// (or is quarantined / the process is told to stop).
//
// This is the service's integration harness as much as its front end: the
// fault matrix (--corrupt-tenant injects deterministic stream corruption
// into one tenant), the SIGTERM -> checkpoint -> resume path, and the
// structured quarantine report the CI soak job greps all live here. The
// feeder cursors ride inside the service checkpoint's `extra` blob, so a
// resumed daemon re-synthesises the same recorded buffers (same seeds) and
// continues each stream from the exact byte where the snapshot stopped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mapping/decision_cache.hpp"
#include "obs/obs.hpp"
#include "svc/service.hpp"

namespace tlbmap::svc {

struct ServeOptions {
  ServiceConfig service{};

  /// Synthetic tenant fleet: `tenants` sessions, each recording `app` at
  /// `threads` threads with per-tenant seeds derived from `seed`. A
  /// multiprogram app ("mp:sp+cg") runs `threads` threads per app, and its
  /// session holds one stream per recorded thread.
  int tenants = 4;
  int threads = 8;
  std::string app = "SP";
  double size_scale = 1.0;
  double iter_scale = 1.0;
  std::uint64_t seed = 1;

  /// Bytes each thread's feeder offers per tick (fragment size — small
  /// enough that records split across chunks constantly, which is the
  /// point).
  std::size_t chunk_bytes = 512;
  /// Stop after this many ticks even if streams remain (0 = run to
  /// completion).
  std::uint64_t max_ticks = 0;

  /// Index of the tenant whose thread-0 stream gets deterministically
  /// corrupted mid-buffer (-1 = none). The run must then end with exactly
  /// this tenant quarantined and every other tenant's outcome bit-identical
  /// to a run without it — the CI soak job asserts it end to end.
  int corrupt_tenant = -1;

  /// Checkpoint file (empty = no checkpointing). With a path set, the
  /// cooperative shutdown flag is polled every tick: on SIGTERM/SIGINT the
  /// service seals its state (feeder cursors included) and exits 130.
  std::string checkpoint_path;
  bool resume = false;

  /// Structured JSON report path (atomic write; empty = stdout summary
  /// only).
  std::string report_out;

  /// Throws std::invalid_argument on an empty fleet, zero threads or chunk
  /// bytes, a workload with more threads than the service machine has
  /// cores, an app the workload registry does not know, a corrupt_tenant
  /// outside [-1, tenants), or an invalid service.
  void validate() const;
};

/// Final state of one tenant, for the report.
struct TenantOutcome {
  int index = 0;
  SessionId session = 0;
  std::string tenant;
  SessionStatus status = SessionStatus::kActive;
  std::uint64_t events = 0;
  bool has_decision = false;
  Mapping mapping;
  std::uint64_t epoch = 0;
  bool degraded = false;

  bool operator==(const TenantOutcome&) const = default;
};

struct ServeOutcome {
  /// 0 = every stream drained; 130 = interrupted (checkpoint written when
  /// configured); 1 = internal failure (message in `error`).
  int exit_code = 0;
  std::string error;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  bool resumed = false;
  std::vector<TenantOutcome> tenants;
  std::vector<QuarantineReport> quarantines;
};

/// Runs the daemon loop. `log` (may be null) receives progress lines.
/// Throws std::invalid_argument when `options` fail validate().
ServeOutcome run_serve(const ServeOptions& options, std::ostream* log,
                       obs::ObsContext* obs);

/// The structured report the CI soak job consumes: tenant outcomes,
/// quarantine reasons (code + message + tick + thread), service counters.
std::string serve_report_json(const ServeOutcome& outcome);

}  // namespace tlbmap::svc
