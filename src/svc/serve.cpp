#include "svc/serve.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"
#include "core/io.hpp"
#include "core/shutdown.hpp"
#include "npb/workload.hpp"
#include "obs/json.hpp"
#include "sim/trace_file.hpp"

namespace tlbmap::svc {
namespace {

/// One tenant's recorded per-thread buffers plus how far each stream has
/// been fed into the service.
struct Feeder {
  int index = 0;
  std::string name;
  SessionId session = 0;  ///< 0 = not admitted yet
  bool dead = false;      ///< quarantined/shed: stop feeding
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<std::size_t> cursors;

  bool open() const { return session != 0; }
  bool drained() const {
    for (std::size_t t = 0; t < buffers.size(); ++t) {
      if (cursors[t] < buffers[t].size()) return false;
    }
    return true;
  }
};

/// Deterministic stream corruption: a run of 0x04 bytes mid-buffer. 0x04
/// is not a barrier, not an end marker and has the access bit clear, so
/// whichever of the overwritten bytes is first read as a record header
/// trips kMalformedTrace at a stable offset.
void corrupt_buffer(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 32) return;
  const std::size_t at = bytes.size() / 2;
  for (std::size_t i = at; i < at + 8 && i < bytes.size(); ++i) {
    bytes[i] = 0x04;
  }
}

/// The workload each tenant records: `app` at `threads` threads per app
/// (a multiprogram app records apps x threads streams).
std::unique_ptr<Workload> make_tenant_workload(const ServeOptions& options) {
  WorkloadParams params;
  params.num_threads = options.threads;
  params.size_scale = options.size_scale;
  params.iter_scale = options.iter_scale;
  return make_npb_workload(options.app, params);
}

std::vector<Feeder> build_feeders(const ServeOptions& options) {
  std::vector<Feeder> feeders;
  feeders.reserve(static_cast<std::size_t>(options.tenants));
  for (int k = 0; k < options.tenants; ++k) {
    Feeder f;
    f.index = k;
    f.name = "tenant-" + std::to_string(k);
    // Per-tenant seed depends only on the tenant's own index, never on the
    // fleet composition — the fault-isolation differential (run with vs.
    // without the corrupt tenant) depends on surviving tenants seeing
    // byte-identical streams either way.
    const auto workload = make_tenant_workload(options);
    f.buffers = record_workload(*workload,
                                options.seed + static_cast<std::uint64_t>(k));
    if (k == options.corrupt_tenant && !f.buffers.empty()) {
      corrupt_buffer(f.buffers[0]);
    }
    f.cursors.assign(f.buffers.size(), 0);
    feeders.push_back(std::move(f));
  }
  return feeders;
}

/// Feeder cursors, sealed into the service checkpoint's `extra` blob.
std::string encode_cursors(const std::vector<Feeder>& feeders) {
  BinWriter w;
  w.u64(feeders.size());
  for (const Feeder& f : feeders) {
    w.u64(f.session);
    w.boolean(f.dead);
    w.u64(f.cursors.size());
    for (const std::size_t c : f.cursors) w.u64(c);
  }
  return w.take();
}

Expected<void> decode_cursors(const std::string& extra,
                              std::vector<Feeder>& feeders) {
  BinReader r(extra, ErrorCode::kCorruptCheckpoint, "serve feeder cursors");
  const std::uint64_t count = r.u64();
  if (r.ok() && count != feeders.size()) {
    r.fail("feeder count " + std::to_string(count) + " does not match " +
           std::to_string(feeders.size()) + " configured tenants");
  }
  for (std::uint64_t i = 0; r.ok() && i < count; ++i) {
    Feeder& f = feeders[static_cast<std::size_t>(i)];
    f.session = r.u64();
    f.dead = r.boolean();
    const std::uint64_t threads = r.u64();
    if (r.ok() && threads != f.cursors.size()) {
      r.fail("feeder " + std::to_string(i) + " thread count " +
             std::to_string(threads) + " does not match recording");
      break;
    }
    for (std::uint64_t t = 0; r.ok() && t < threads; ++t) {
      const std::uint64_t cursor = r.u64();
      if (r.ok() && cursor > f.buffers[static_cast<std::size_t>(t)].size()) {
        r.fail("feeder " + std::to_string(i) + " cursor " +
               std::to_string(cursor) + " past its recorded stream");
        break;
      }
      f.cursors[static_cast<std::size_t>(t)] =
          static_cast<std::size_t>(cursor);
    }
  }
  if (!r.ok()) return r.error();
  return Expected<void>{};
}

const char* error_name(ErrorCode code) { return tlbmap::to_string(code); }

}  // namespace

void ServeOptions::validate() const {
  if (tenants < 1 || threads < 1 || chunk_bytes == 0) {
    throw std::invalid_argument(
        "ServeOptions: tenants, threads and chunk_bytes must be >= 1");
  }
  if (corrupt_tenant < -1 || corrupt_tenant >= tenants) {
    throw std::invalid_argument(
        "ServeOptions: corrupt_tenant must be -1 or a tenant index");
  }
  service.validate();
  // The service admits no session with more threads than cores, so such a
  // fleet could never start.
  const int workload_threads = make_tenant_workload(*this)->num_threads();
  if (workload_threads > service.machine.num_cores()) {
    throw std::invalid_argument(
        "ServeOptions: " + app + " at " + std::to_string(threads) +
        " threads runs " + std::to_string(workload_threads) +
        " threads, more than the " +
        std::to_string(service.machine.num_cores()) + "-core machine has");
  }
}

ServeOutcome run_serve(const ServeOptions& options, std::ostream* log,
                       obs::ObsContext* obs) {
  options.validate();
  ServeOutcome outcome;
  MappingService service(options.service);
  service.set_observability(obs);
  std::vector<Feeder> feeders = build_feeders(options);

  if (options.resume && !options.checkpoint_path.empty() &&
      std::filesystem::exists(options.checkpoint_path)) {
    Expected<std::string> extra = service.load(options.checkpoint_path);
    if (extra.has_value()) {
      const Expected<void> cursors = decode_cursors(*extra, feeders);
      if (cursors.has_value()) {
        outcome.resumed = true;
        if (log != nullptr) {
          *log << "[serve] resumed from " << options.checkpoint_path
               << " at tick " << service.tick() << "\n";
        }
      } else {
        outcome.exit_code = 1;
        outcome.error = cursors.error().to_string();
        return outcome;
      }
    } else if (log != nullptr) {
      // Same discipline as the suite: a bad/missing checkpoint degrades to
      // a fresh run instead of refusing to serve.
      *log << "[serve] cannot resume (" << extra.error().to_string()
           << "); starting fresh\n";
    }
  }

  const bool checkpointing = !options.checkpoint_path.empty();
  std::uint64_t idle_ticks = 0;
  while (true) {
    if (shutdown_requested()) {
      if (checkpointing) {
        const Expected<void> saved =
            service.save(options.checkpoint_path, encode_cursors(feeders));
        if (log != nullptr) {
          if (saved.has_value()) {
            *log << "[serve] interrupted; checkpoint written to "
                 << options.checkpoint_path << " (resume with --resume)\n";
          } else {
            *log << "[serve] interrupted; checkpoint failed: "
                 << saved.error().to_string() << "\n";
          }
        }
      }
      outcome.exit_code = 130;
      break;
    }

    bool progressed = false;
    // Admission: open sessions for tenants not yet admitted. A rejection
    // (cap/budget) is retried next tick — existing sessions are never
    // disturbed to make room.
    for (Feeder& f : feeders) {
      if (f.open() || f.dead) continue;
      const Expected<SessionId> id = service.open_session(
          f.name, static_cast<int>(f.buffers.size()));
      if (id.has_value()) {
        f.session = *id;
        progressed = true;
      }
    }
    // Ingest one fragment per thread per tick.
    for (Feeder& f : feeders) {
      if (!f.open() || f.dead) continue;
      for (std::size_t t = 0; t < f.buffers.size(); ++t) {
        const std::vector<std::uint8_t>& buffer = f.buffers[t];
        std::size_t& cursor = f.cursors[t];
        if (cursor >= buffer.size()) continue;
        const std::size_t chunk =
            std::min(options.chunk_bytes, buffer.size() - cursor);
        const Expected<IngestResult> fed = service.ingest(
            f.session, static_cast<ThreadId>(t), buffer.data() + cursor,
            chunk);
        if (fed.has_value()) {
          cursor += chunk;
          progressed = true;
        } else if (fed.error().code != ErrorCode::kBackpressure) {
          f.dead = true;  // quarantined (or shed): stop feeding
          break;
        }
      }
    }
    const std::uint64_t events = service.pump();
    outcome.events += events;
    ++outcome.ticks;
    if (events > 0) progressed = true;
    // Decision reads every tick, right after the pump: cache-served when
    // fresh, decided afresh while detection is still degenerate.
    for (Feeder& f : feeders) {
      if (!f.open() || f.dead) continue;
      const Session* session = service.find(f.session);
      if (session == nullptr) continue;
      if (session->status() == SessionStatus::kQuarantined ||
          session->status() == SessionStatus::kShed) {
        f.dead = true;
        continue;
      }
      (void)service.decision(f.session);
    }
    if (checkpointing && outcome.ticks % 32 == 0) {
      (void)service.save(options.checkpoint_path, encode_cursors(feeders));
    }

    bool done = true;
    for (const Feeder& f : feeders) {
      if (f.dead) continue;
      const Session* session =
          f.open() ? service.find(f.session) : nullptr;
      if (!f.open() || !f.drained() ||
          (session != nullptr &&
           session->status() == SessionStatus::kActive)) {
        done = false;
        break;
      }
    }
    if (done) break;
    if (options.max_ticks > 0 && outcome.ticks >= options.max_ticks) {
      // A tick-capped run is a deliberate pause: leave a resume point just
      // like an interrupt would.
      if (checkpointing) {
        (void)service.save(options.checkpoint_path, encode_cursors(feeders));
      }
      break;
    }
    idle_ticks = progressed ? 0 : idle_ticks + 1;
    if (idle_ticks > 1024) {
      outcome.exit_code = 1;
      outcome.error = "serve: no progress for 1024 ticks (stalled)";
      break;
    }
  }

  for (Feeder& f : feeders) {
    TenantOutcome t;
    t.index = f.index;
    t.session = f.session;
    t.tenant = f.name;
    const Session* session = f.open() ? service.find(f.session) : nullptr;
    if (session != nullptr) {
      t.status = session->status();
      t.events = session->events_processed();
      if (session->status() == SessionStatus::kActive ||
          session->status() == SessionStatus::kComplete) {
        const Expected<MappingDecision> decision =
            service.decision(f.session);
        if (decision.has_value()) {
          t.has_decision = true;
          t.mapping = decision->mapping;
          t.epoch = decision->epoch;
          t.degraded = decision->degraded;
        }
      } else if (session->cache().has_decision()) {
        // Quarantined/shed after a decision existed: report the last one.
        const DecisionCacheState cache = session->cache().state();
        t.has_decision = true;
        t.mapping = cache.mapping;
        t.epoch = cache.epoch;
      }
    }
    outcome.tenants.push_back(std::move(t));
  }
  outcome.quarantines = service.quarantine_reports();

  if (log != nullptr) {
    *log << "[serve] " << outcome.ticks << " ticks, " << outcome.events
         << " events, " << service.live_sessions() << "/" << feeders.size()
         << " sessions live, " << outcome.quarantines.size()
         << " quarantined/shed\n";
    for (const QuarantineReport& q : outcome.quarantines) {
      *log << "[serve] quarantine session=" << q.id << " tenant=" << q.tenant
           << " status=" << to_string(q.status) << " code=["
           << error_name(q.reason.code) << "] tick=" << q.reason.tick
           << " thread=" << q.reason.thread << " reason=" << q.reason.message
           << "\n";
    }
  }
  if (!options.report_out.empty()) {
    const Expected<void> written =
        atomic_write_file(options.report_out, serve_report_json(outcome));
    if (!written.has_value() && log != nullptr) {
      *log << "[serve] cannot write report: " << written.error().to_string()
           << "\n";
    }
  }
  return outcome;
}

std::string serve_report_json(const ServeOutcome& outcome) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"exit_code\": " << outcome.exit_code << ",\n";
  out << "  \"error\": " << obs::json_str(outcome.error) << ",\n";
  out << "  \"ticks\": " << outcome.ticks << ",\n";
  out << "  \"events\": " << outcome.events << ",\n";
  out << "  \"resumed\": " << (outcome.resumed ? "true" : "false") << ",\n";
  out << "  \"tenants\": [";
  for (std::size_t i = 0; i < outcome.tenants.size(); ++i) {
    const TenantOutcome& t = outcome.tenants[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"index\": " << t.index << ", \"session\": " << t.session
        << ", \"tenant\": " << obs::json_str(t.tenant) << ", \"status\": "
        << obs::json_str(to_string(t.status)) << ", \"events\": " << t.events
        << ", \"has_decision\": " << (t.has_decision ? "true" : "false")
        << ", \"epoch\": " << t.epoch << ", \"degraded\": "
        << (t.degraded ? "true" : "false") << ", \"mapping\": [";
    for (std::size_t c = 0; c < t.mapping.size(); ++c) {
      if (c > 0) out << ", ";
      out << t.mapping[c];
    }
    out << "]}";
  }
  out << "\n  ],\n";
  out << "  \"quarantines\": [";
  for (std::size_t i = 0; i < outcome.quarantines.size(); ++i) {
    const QuarantineReport& q = outcome.quarantines[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"session\": " << q.id << ", \"tenant\": "
        << obs::json_str(q.tenant) << ", \"status\": "
        << obs::json_str(to_string(q.status)) << ", \"code\": "
        << obs::json_str(tlbmap::to_string(q.reason.code))
        << ", \"tick\": " << q.reason.tick << ", \"thread\": "
        << q.reason.thread << ", \"message\": "
        << obs::json_str(q.reason.message) << "}";
  }
  out << "\n  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace tlbmap::svc
