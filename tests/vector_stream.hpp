// Canned trace streams for tests: each thread replays a fixed event list.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/trace.hpp"

namespace tlbmap {

/// Stream fed from a vector of events, then kEnd forever.
class VectorStream final : public ThreadStream {
 public:
  explicit VectorStream(std::vector<TraceEvent> events)
      : events_(std::move(events)) {}

  std::size_t fill(std::span<TraceEvent> out) override {
    if (pos_ >= events_.size()) {
      out[0] = TraceEvent::make_end();
      return 1;
    }
    const std::size_t n = std::min(out.size(), events_.size() - pos_);
    std::copy_n(events_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
                out.begin());
    pos_ += n;
    return n;
  }

 private:
  std::vector<TraceEvent> events_;
  std::size_t pos_ = 0;
};

/// One VectorStream per thread.
inline std::vector<std::unique_ptr<ThreadStream>> streams_of(
    std::vector<std::vector<TraceEvent>> events) {
  std::vector<std::unique_ptr<ThreadStream>> out;
  for (auto& e : events) {
    out.push_back(std::make_unique<VectorStream>(std::move(e)));
  }
  return out;
}

}  // namespace tlbmap
