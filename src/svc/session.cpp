#include "svc/session.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace tlbmap::svc {

const char* to_string(SessionStatus status) {
  switch (status) {
    case SessionStatus::kActive:
      return "active";
    case SessionStatus::kComplete:
      return "complete";
    case SessionStatus::kQuarantined:
      return "quarantined";
    case SessionStatus::kShed:
      return "shed";
  }
  return "unknown";
}

Session::Session(SessionId id, std::string tenant, int num_threads,
                 int page_shift, SessionLimits limits,
                 StreamDetectorConfig detector_config,
                 DecisionCacheConfig cache_config)
    : id_(id),
      tenant_(std::move(tenant)),
      page_shift_(page_shift),
      limits_(limits),
      decoders_(static_cast<std::size_t>(num_threads)),
      detector_(num_threads, detector_config),
      cache_(cache_config) {}

Expected<IngestResult> Session::ingest(ThreadId thread,
                                       const std::uint8_t* data,
                                       std::size_t size, std::uint64_t tick) {
  if (status_ == SessionStatus::kQuarantined) {
    return Error{ErrorCode::kSessionQuarantined,
                 "session " + std::to_string(id_) + " (" + tenant_ +
                     ") is quarantined: " + reason_.message};
  }
  if (status_ == SessionStatus::kShed) {
    return Error{ErrorCode::kSessionQuarantined,
                 "session " + std::to_string(id_) + " (" + tenant_ +
                     ") was shed: " + reason_.message};
  }
  if (thread < 0 || thread >= num_threads()) {
    return Error{ErrorCode::kInvalidArgument,
                 "session " + std::to_string(id_) + ": thread " +
                     std::to_string(thread) + " out of range [0, " +
                     std::to_string(num_threads()) + ")"};
  }
  if (queued_bytes() + size > limits_.queue_bytes) {
    return Error{ErrorCode::kBackpressure,
                 "session " + std::to_string(id_) + " (" + tenant_ +
                     "): ingest of " + std::to_string(size) +
                     " bytes would exceed the " +
                     std::to_string(limits_.queue_bytes) +
                     "-byte queue; drain with pump() and retry"};
  }
  TraceStreamDecoder& decoder = decoders_[static_cast<std::size_t>(thread)];
  decoder.feed(data, size);
  if (decoder.finished()) {
    // pump() skips ended streams and completed sessions, so the decoder
    // judges bytes fed after the end marker here. Broken framing makes the
    // whole session's stream state suspect, not just this chunk.
    const Expected<TraceStreamDecoder::Status> status = decoder.next(nullptr);
    if (!status.has_value()) {
      quarantine(status.error(), tick, thread);
      return Error{ErrorCode::kSessionQuarantined,
                   "session " + std::to_string(id_) + " (" + tenant_ +
                       ") is quarantined: " + reason_.message};
    }
  }
  bytes_ingested_ += size;
  return IngestResult{size, queued_bytes()};
}

std::uint64_t Session::pump(std::uint64_t tick) {
  if (status_ != SessionStatus::kActive) return 0;
  std::uint64_t processed = 0;
  const int n = num_threads();
  int idle_threads = 0;
  TraceEvent event;
  // Round-robin from where the previous pump left off so a deadline-capped
  // pump does not starve high-numbered threads.
  while (processed < limits_.deadline_events && idle_threads < n) {
    const int t = next_thread_;
    next_thread_ = (next_thread_ + 1) % n;
    TraceStreamDecoder& decoder = decoders_[static_cast<std::size_t>(t)];
    if (decoder.finished()) {
      ++idle_threads;
      continue;
    }
    const Expected<TraceStreamDecoder::Status> status = decoder.next(&event);
    if (!status.has_value()) {
      quarantine(status.error(), tick, t);
      return processed;
    }
    switch (*status) {
      case TraceStreamDecoder::Status::kNeedMore:
        ++idle_threads;
        continue;
      case TraceStreamDecoder::Status::kEnd:
        continue;  // finished() now true; counted idle next visit
      case TraceStreamDecoder::Status::kEvent:
        break;
    }
    idle_threads = 0;
    ++processed;
    ++events_processed_;
    if (event.kind == TraceEvent::Kind::kBarrier) {
      ++barriers_seen_;
    } else if (event.kind == TraceEvent::Kind::kAccess) {
      detector_.feed(t, event.access.addr >> page_shift_);
    }
  }
  maybe_complete();
  return processed;
}

void Session::maybe_complete() {
  for (const TraceStreamDecoder& decoder : decoders_) {
    if (!decoder.finished()) return;
  }
  // Final sweep: the last partial windows still carry sharing signal.
  detector_.sweep();
  status_ = SessionStatus::kComplete;
}

Expected<MappingDecision> Session::decision(const Topology& topology,
                                            const MappingConfig& mapping_config,
                                            std::uint64_t tick) {
  if (status_ == SessionStatus::kQuarantined ||
      status_ == SessionStatus::kShed) {
    return Error{ErrorCode::kSessionQuarantined,
                 "session " + std::to_string(id_) + " (" + tenant_ + ") is " +
                     std::string(to_string(status_)) + ": " + reason_.message};
  }
  Expected<MappingDecision> decision =
      cache_.decide(detector_.matrix(), topology, mapping_config);
  if (!decision.has_value() &&
      decision.error().code == ErrorCode::kSaturatedMatrix) {
    quarantine(decision.error(), tick, kNoThread);
  }
  return decision;
}

void Session::shed(std::uint64_t tick) {
  if (status_ == SessionStatus::kQuarantined) return;
  status_ = SessionStatus::kShed;
  reason_ = QuarantineReason{ErrorCode::kAdmissionRejected,
                             "shed to fit the service memory budget", tick,
                             kNoThread};
  for (TraceStreamDecoder& decoder : decoders_) decoder = {};
}

void Session::quarantine(Error error, std::uint64_t tick, ThreadId thread) {
  status_ = SessionStatus::kQuarantined;
  reason_ = QuarantineReason{error.code, std::move(error.message), tick,
                             thread};
  // Release the queues: a quarantined tenant must not hold fleet memory.
  for (TraceStreamDecoder& decoder : decoders_) decoder = {};
}

std::size_t Session::queued_bytes() const {
  std::size_t total = 0;
  for (const TraceStreamDecoder& decoder : decoders_) {
    total += decoder.buffered_bytes();
  }
  return total;
}

std::size_t Session::memory_bytes() const {
  return detector_.memory_bytes() + cache_.memory_bytes() + queued_bytes();
}

Session::State Session::state() const {
  State s;
  s.id = id_;
  s.tenant = tenant_;
  s.num_threads = static_cast<std::uint32_t>(num_threads());
  s.status = status_;
  s.reason = reason_;
  s.decoders.reserve(decoders_.size());
  for (const TraceStreamDecoder& decoder : decoders_) {
    s.decoders.push_back(decoder.state());
  }
  s.detector = detector_.state();
  s.cache = cache_.state();
  s.events_processed = events_processed_;
  s.bytes_ingested = bytes_ingested_;
  s.barriers_seen = barriers_seen_;
  s.next_thread = next_thread_;
  return s;
}

void Session::restore(const State& state) {
  if (state.num_threads != static_cast<std::uint32_t>(num_threads())) {
    throw std::invalid_argument("Session::restore: thread count mismatch");
  }
  if (state.decoders.size() != decoders_.size()) {
    throw std::invalid_argument("Session::restore: decoder count mismatch");
  }
  detector_.restore(state.detector);  // throws on shape mismatch
  cache_.restore(state.cache);
  for (std::size_t i = 0; i < decoders_.size(); ++i) {
    decoders_[i].restore(state.decoders[i]);
  }
  status_ = state.status;
  reason_ = state.reason;
  events_processed_ = state.events_processed;
  bytes_ingested_ = state.bytes_ingested;
  barriers_seen_ = state.barriers_seen;
  next_thread_ = state.next_thread;
}

}  // namespace tlbmap::svc
