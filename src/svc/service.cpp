#include "svc/service.hpp"

#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/io.hpp"

namespace tlbmap::svc {
namespace {

// FNV-1a, same constants as suite_config_hash (core/experiment.cpp): the
// hash only has to be stable and sensitive to shape, not cryptographic.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  h = fnv1a(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint32_t kMaxErrorCode =
    static_cast<std::uint32_t>(ErrorCode::kSaturatedMatrix);
constexpr std::uint32_t kMaxStatus =
    static_cast<std::uint32_t>(SessionStatus::kShed);

void write_decoder(BinWriter& w, const TraceStreamDecoder::State& s) {
  w.str(std::string_view(reinterpret_cast<const char*>(s.pending.data()),
                         s.pending.size()));
  w.u64(s.consumed);
  w.u64(s.last_addr);
  w.u64(s.records);
  w.boolean(s.header_done);
  w.boolean(s.done);
}

TraceStreamDecoder::State read_decoder(BinReader& r) {
  TraceStreamDecoder::State s;
  const std::string pending = r.str();
  s.pending.assign(pending.begin(), pending.end());
  s.consumed = r.u64();
  s.last_addr = r.u64();
  s.records = r.u64();
  s.header_done = r.boolean();
  s.done = r.boolean();
  return s;
}

void write_session(BinWriter& w, const Session::State& s) {
  w.u64(s.id);
  w.str(s.tenant);
  w.u32(s.num_threads);
  w.u32(static_cast<std::uint32_t>(s.status));
  w.u32(static_cast<std::uint32_t>(s.reason.code));
  w.str(s.reason.message);
  w.u64(s.reason.tick);
  w.i32(s.reason.thread);
  w.u64(s.decoders.size());
  for (const TraceStreamDecoder::State& d : s.decoders) write_decoder(w, d);
  write_matrix(w, s.detector.matrix);
  w.u64(s.detector.events);
  w.u64(s.detector.sweeps);
  w.u64(s.detector.windows.size());
  for (const std::vector<PageNum>& window : s.detector.windows) {
    w.u64(window.size());
    for (const PageNum page : window) w.u64(page);
  }
  w.boolean(s.cache.valid);
  write_mapping(w, s.cache.mapping);
  w.u64(s.cache.epoch);
  write_matrix(w, s.cache.matched);
  w.u64(s.events_processed);
  w.u64(s.bytes_ingested);
  w.u64(s.barriers_seen);
  w.i32(s.next_thread);
}

Session::State read_session(BinReader& r) {
  Session::State s;
  s.id = r.u64();
  s.tenant = r.str();
  s.num_threads = r.u32();
  const std::uint32_t status = r.u32();
  if (r.ok() && status > kMaxStatus) {
    r.fail("session status holds " + std::to_string(status));
  }
  s.status = static_cast<SessionStatus>(status);
  const std::uint32_t code = r.u32();
  if (r.ok() && code > kMaxErrorCode) {
    r.fail("quarantine code holds " + std::to_string(code));
  }
  s.reason.code = static_cast<ErrorCode>(code);
  s.reason.message = r.str();
  s.reason.tick = r.u64();
  s.reason.thread = r.i32();
  const std::uint64_t decoders = r.u64();
  if (r.ok() && decoders != s.num_threads) {
    r.fail("decoder count " + std::to_string(decoders) +
           " does not match thread count " + std::to_string(s.num_threads));
  }
  for (std::uint64_t i = 0; r.ok() && i < decoders; ++i) {
    s.decoders.push_back(read_decoder(r));
  }
  s.detector.matrix = read_matrix(r);
  s.detector.events = r.u64();
  s.detector.sweeps = r.u64();
  const std::uint64_t windows = r.u64();
  if (r.ok() && windows != s.num_threads) {
    r.fail("window count " + std::to_string(windows) +
           " does not match thread count " + std::to_string(s.num_threads));
  }
  for (std::uint64_t i = 0; r.ok() && i < windows; ++i) {
    const std::uint64_t len = r.u64();
    std::vector<PageNum> window;
    for (std::uint64_t j = 0; r.ok() && j < len; ++j) {
      window.push_back(r.u64());
    }
    s.detector.windows.push_back(std::move(window));
  }
  s.cache.valid = r.boolean();
  s.cache.mapping = read_mapping(r);
  s.cache.epoch = r.u64();
  s.cache.matched = read_matrix(r);
  s.events_processed = r.u64();
  s.bytes_ingested = r.u64();
  s.barriers_seen = r.u64();
  s.next_thread = r.i32();
  return s;
}

}  // namespace

void ServiceConfig::validate() const {
  machine.validate();
  detector.validate();
  cache.validate();
  if (max_sessions < 1) {
    throw std::invalid_argument("ServiceConfig: max_sessions must be >= 1");
  }
  if (session.queue_bytes == 0) {
    throw std::invalid_argument("ServiceConfig: session queue must be > 0");
  }
  if (session.deadline_events == 0) {
    throw std::invalid_argument(
        "ServiceConfig: deadline_events must be >= 1");
  }
  if (session.budget_bytes < session.queue_bytes) {
    throw std::invalid_argument(
        "ServiceConfig: session budget smaller than its queue");
  }
  if (total_budget_bytes < session.budget_bytes) {
    throw std::invalid_argument(
        "ServiceConfig: total budget smaller than one session budget");
  }
}

std::uint64_t service_config_hash(const ServiceConfig& config) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = fnv1a(h, std::string("svc-v2"));
  h = fnv1a(h, static_cast<std::uint64_t>(config.machine.num_sockets));
  h = fnv1a(h, static_cast<std::uint64_t>(config.machine.cores_per_socket));
  h = fnv1a(h, static_cast<std::uint64_t>(config.machine.cores_per_l2));
  h = fnv1a(h, static_cast<std::uint64_t>(config.machine.socket_mesh_cols));
  h = fnv1a(h, config.machine.page_size);
  h = fnv1a(h, static_cast<std::uint64_t>(config.max_sessions));
  h = fnv1a(h, config.session.queue_bytes);
  h = fnv1a(h, config.session.budget_bytes);
  h = fnv1a(h, config.session.deadline_events);
  h = fnv1a(h, config.total_budget_bytes);
  h = fnv1a(h, static_cast<std::uint64_t>(config.detector.window_pages));
  h = fnv1a(h, config.detector.sweep_every);
  h = fnv1a(h, static_cast<std::uint64_t>(config.cache.drift_threshold *
                                          1000000.0));
  h = fnv1a(h, std::string(to_string(config.mapping.strategy)));
  return h;
}

MappingService::MappingService(ServiceConfig config)
    : config_(std::move(config)), topology_(config_.machine) {
  config_.validate();
}

Expected<SessionId> MappingService::open_session(const std::string& tenant,
                                                 int num_threads) {
  if (num_threads < 1 || num_threads > topology_.num_cores()) {
    return Error{ErrorCode::kInvalidArgument,
                 "open_session(" + tenant + "): thread count " +
                     std::to_string(num_threads) + " outside [1, " +
                     std::to_string(topology_.num_cores()) + "]"};
  }
  const auto reject = [&](const std::string& why) -> Error {
    ++rejected_;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("svc.sessions_rejected").add();
    }
    return Error{ErrorCode::kAdmissionRejected,
                 "open_session(" + tenant + "): " + why};
  };
  if (live_sessions() >= static_cast<std::size_t>(config_.max_sessions)) {
    return reject("service at its " + std::to_string(config_.max_sessions) +
                  "-session cap");
  }
  Session candidate(next_id_, tenant, num_threads,
                    config_.machine.page_shift(), config_.session,
                    config_.detector, config_.cache);
  // Budget admission is pessimistic: charge the fixed state plus a *full*
  // queue, so an admitted session can never be pushed over its budget (or
  // the fleet's) by bytes it is entitled to buffer.
  const std::size_t worst_case =
      candidate.memory_bytes() + config_.session.queue_bytes;
  if (worst_case > config_.session.budget_bytes) {
    return reject("fixed session state (" + std::to_string(worst_case) +
                  " bytes worst-case) exceeds the per-session budget of " +
                  std::to_string(config_.session.budget_bytes));
  }
  std::size_t fleet_worst_case = worst_case;
  for (const auto& [id, session] : sessions_) {
    if (session.status() == SessionStatus::kActive ||
        session.status() == SessionStatus::kComplete) {
      fleet_worst_case += session.memory_bytes() - session.queued_bytes() +
                          session.limits().queue_bytes;
    }
  }
  if (fleet_worst_case > config_.total_budget_bytes) {
    return reject("fleet worst-case of " + std::to_string(fleet_worst_case) +
                  " bytes exceeds the total budget of " +
                  std::to_string(config_.total_budget_bytes) +
                  " (reject-new before degrade-existing)");
  }
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(candidate));
  ++admitted_;
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    metrics->counter("svc.sessions_admitted").add();
    metrics->gauge("svc.sessions_live").set(
        static_cast<double>(live_sessions()));
  }
  return id;
}

Session* MappingService::find_mut(SessionId id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const Session* MappingService::find(SessionId id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

Expected<IngestResult> MappingService::ingest(SessionId id, ThreadId thread,
                                              const std::uint8_t* data,
                                              std::size_t size) {
  Session* session = find_mut(id);
  if (session == nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "ingest: unknown session " + std::to_string(id)};
  }
  const SessionStatus before = session->status();
  Expected<IngestResult> result = session->ingest(thread, data, size, tick_);
  obs::MetricsRegistry* metrics =
      obs::metrics_at(obs_, obs::ObsLevel::kPhases);
  if (result.has_value()) {
    if (metrics != nullptr) {
      metrics->counter("svc.bytes_ingested", {{"tenant", session->tenant()}})
          .add(size);
    }
    return result;
  }
  if (result.error().code == ErrorCode::kBackpressure) {
    ++backpressure_;
    if (metrics != nullptr) {
      metrics->counter("svc.backpressure", {{"tenant", session->tenant()}})
          .add();
    }
  }
  if (before != SessionStatus::kQuarantined &&
      session->status() == SessionStatus::kQuarantined) {
    ++quarantined_;
    if (metrics != nullptr) {
      metrics->counter("svc.sessions_quarantined").add();
    }
  }
  return result;
}

std::uint64_t MappingService::pump() {
  ++tick_;
  std::uint64_t processed = 0;
  obs::MetricsRegistry* metrics =
      obs::metrics_at(obs_, obs::ObsLevel::kPhases);
  for (auto& [id, session] : sessions_) {
    const SessionStatus before = session.status();
    const std::uint64_t events = session.pump(tick_);
    processed += events;
    if (metrics != nullptr && events > 0) {
      metrics->counter("svc.events_processed", {{"tenant", session.tenant()}})
          .add(events);
    }
    if (before != SessionStatus::kQuarantined &&
        session.status() == SessionStatus::kQuarantined) {
      ++quarantined_;
      if (metrics != nullptr) {
        metrics->counter("svc.sessions_quarantined").add();
      }
    }
  }
  if (metrics != nullptr) {
    metrics->gauge("svc.memory_bytes").set(
        static_cast<double>(memory_bytes()));
    metrics->gauge("svc.sessions_live").set(
        static_cast<double>(live_sessions()));
  }
  return processed;
}

Expected<MappingDecision> MappingService::decision(SessionId id) {
  Session* session = find_mut(id);
  if (session == nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "decision: unknown session " + std::to_string(id)};
  }
  const SessionStatus before = session->status();
  Expected<MappingDecision> result =
      session->decision(topology_, config_.mapping, tick_);
  obs::MetricsRegistry* metrics =
      obs::metrics_at(obs_, obs::ObsLevel::kPhases);
  if (metrics != nullptr) {
    metrics->counter("svc.decisions", {{"tenant", session->tenant()}}).add();
    if (result.has_value() && result->degraded) {
      metrics->counter("svc.decisions_degraded",
                       {{"tenant", session->tenant()}})
          .add();
    }
  }
  if (before != SessionStatus::kQuarantined &&
      session->status() == SessionStatus::kQuarantined) {
    ++quarantined_;
    if (metrics != nullptr) {
      metrics->counter("svc.sessions_quarantined").add();
    }
  }
  return result;
}

Expected<void> MappingService::close_session(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Error{ErrorCode::kInvalidArgument,
                 "close_session: unknown session " + std::to_string(id)};
  }
  sessions_.erase(it);
  return Expected<void>{};
}

std::size_t MappingService::live_sessions() const {
  std::size_t live = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.status() == SessionStatus::kActive ||
        session.status() == SessionStatus::kComplete) {
      ++live;
    }
  }
  return live;
}

std::size_t MappingService::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.status() == SessionStatus::kActive ||
        session.status() == SessionStatus::kComplete) {
      total += session.memory_bytes();
    }
  }
  return total;
}

void MappingService::set_total_budget_bytes(std::size_t bytes) {
  config_.total_budget_bytes = bytes;
  shed_to_budget();
}

void MappingService::shed_to_budget() {
  // Newest-admitted-first: session ids are monotonic, so walking the map in
  // reverse id order sheds the youngest tenants until the fleet fits. The
  // oldest (longest-served) tenants degrade last — deterministic by
  // construction.
  for (auto it = sessions_.rbegin();
       it != sessions_.rend() && memory_bytes() > config_.total_budget_bytes;
       ++it) {
    Session& session = it->second;
    if (session.status() != SessionStatus::kActive &&
        session.status() != SessionStatus::kComplete) {
      continue;
    }
    session.shed(tick_);
    ++shed_;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("svc.sessions_shed").add();
    }
  }
}

std::vector<QuarantineReport> MappingService::quarantine_reports() const {
  std::vector<QuarantineReport> reports;
  for (const auto& [id, session] : sessions_) {
    if (session.status() == SessionStatus::kQuarantined ||
        session.status() == SessionStatus::kShed) {
      reports.push_back(QuarantineReport{id, session.tenant(),
                                         session.status(),
                                         session.quarantine_reason()});
    }
  }
  return reports;
}

std::string MappingService::serialize(std::string_view extra) const {
  BinWriter w;
  w.u64(next_id_);
  w.u64(tick_);
  w.u64(admitted_);
  w.u64(rejected_);
  w.u64(quarantined_);
  w.u64(shed_);
  w.u64(backpressure_);
  w.str(extra);
  w.u64(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    write_session(w, session.state());
  }
  return seal_checkpoint(w.take(), service_config_hash(config_));
}

Expected<std::string> MappingService::restore(std::string_view bytes) {
  Expected<std::string> payload =
      unseal_checkpoint(bytes, service_config_hash(config_));
  if (!payload.has_value()) return payload.error();
  BinReader r(*payload, ErrorCode::kCorruptCheckpoint, "service payload");
  const std::uint64_t next_id = r.u64();
  const std::uint64_t tick = r.u64();
  const std::uint64_t admitted = r.u64();
  const std::uint64_t rejected = r.u64();
  const std::uint64_t quarantined = r.u64();
  const std::uint64_t shed = r.u64();
  const std::uint64_t backpressure = r.u64();
  std::string extra = r.str();
  const std::uint64_t count = r.u64();
  std::map<SessionId, Session> sessions;
  for (std::uint64_t i = 0; r.ok() && i < count; ++i) {
    const Session::State state = read_session(r);
    if (!r.ok()) break;
    if (state.num_threads == 0 ||
        state.num_threads >
            static_cast<std::uint32_t>(topology_.num_cores())) {
      r.fail("session " + std::to_string(state.id) + " thread count " +
             std::to_string(state.num_threads) + " out of range");
      break;
    }
    Session session(state.id, state.tenant,
                    static_cast<int>(state.num_threads),
                    config_.machine.page_shift(), config_.session,
                    config_.detector, config_.cache);
    try {
      session.restore(state);
    } catch (const std::invalid_argument& e) {
      r.fail(std::string("session ") + std::to_string(state.id) + ": " +
             e.what());
      break;
    }
    sessions.emplace(state.id, std::move(session));
  }
  if (r.ok() && !r.at_end()) {
    r.fail("trailing bytes after last session");
  }
  if (!r.ok()) return r.error();
  sessions_ = std::move(sessions);
  next_id_ = next_id;
  tick_ = tick;
  admitted_ = admitted;
  rejected_ = rejected;
  quarantined_ = quarantined;
  shed_ = shed;
  backpressure_ = backpressure;
  return extra;
}

Expected<void> MappingService::save(const std::filesystem::path& path,
                                    std::string_view extra) const {
  return atomic_write_file(path, serialize(extra));
}

Expected<std::string> MappingService::load(const std::filesystem::path& path) {
  Expected<std::string> bytes = read_file(path);
  if (!bytes.has_value()) return bytes.error();
  return restore(*bytes);
}

}  // namespace tlbmap::svc
