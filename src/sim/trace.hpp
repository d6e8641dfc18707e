// Trace event model: workloads are per-thread streams of memory accesses
// punctuated by barriers (the OpenMP-style synchronisation of the NPB).
//
// Streams are pull-based and lazily generated, so multi-million-access runs
// never materialise a trace in memory (unlike the 100+ GB trace files of the
// simulation-based related work the paper criticises).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "sim/types.hpp"

namespace tlbmap {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kAccess,   ///< one memory operation
    kBarrier,  ///< thread waits until every live thread reaches its barrier
    kEnd,      ///< stream exhausted
  };

  Kind kind = Kind::kEnd;
  MemAccess access{};

  static TraceEvent make_access(VirtAddr addr, AccessType type,
                                std::uint32_t compute_gap = 0) {
    return TraceEvent{Kind::kAccess, MemAccess{addr, type, compute_gap}};
  }
  static TraceEvent make_barrier() { return TraceEvent{Kind::kBarrier, {}}; }
  static TraceEvent make_end() { return TraceEvent{Kind::kEnd, {}}; }
};

/// One thread's access stream, produced in batches.
///
/// `fill` is the only thing a stream implements: it writes between 1 and
/// `out.size()` events (`out` is never empty) and returns how many. A kEnd
/// event is always the last one of its batch, and once a stream is
/// exhausted every further call writes a single kEnd (the machine may poll
/// past the end). `next()` pops one event at a time from a small buffer
/// that `fill` refills, so per-event consumers pay one virtual call per
/// batch, not per event. A consumer uses either `next()` or `fill()` on a
/// given stream, never both: events buffered by `next()` are not seen by
/// a later `fill()`.
class ThreadStream {
 public:
  virtual ~ThreadStream() = default;

  virtual std::size_t fill(std::span<TraceEvent> out) = 0;

  TraceEvent next() {
    if (head_ == size_) {
      // A throwing fill leaves the buffer empty, so the next call retries.
      size_ = static_cast<std::uint32_t>(fill(buffer_));
      head_ = 0;
    }
    return buffer_[head_++];
  }

 private:
  static constexpr std::size_t kBufferEvents = 64;

  std::array<TraceEvent, kBufferEvents> buffer_{};
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace tlbmap
