#include "detect/stream_detector.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "detect/shared_pages.hpp"

namespace tlbmap {

void StreamDetectorConfig::validate() const {
  if (window_pages < 1) {
    throw std::invalid_argument("StreamDetector: window_pages must be >= 1");
  }
  if (sweep_every == 0) {
    throw std::invalid_argument("StreamDetector: sweep_every must be >= 1");
  }
}

StreamDetector::StreamDetector(int num_threads, StreamDetectorConfig config)
    : config_(config), matrix_(num_threads) {
  config_.validate();
  if (num_threads < 1) {
    throw std::invalid_argument("StreamDetector: num_threads must be >= 1");
  }
  const auto window_pages = static_cast<std::size_t>(config_.window_pages);
  windows_.resize(static_cast<std::size_t>(num_threads));
  for (auto& w : windows_) w.reserve(window_pages);
  // A sweep lists every window entry at most once, so memory_bytes() is
  // final from here on: the service admits a session on this value.
  page_entries_.reserve(windows_.size() * window_pages);
}

void StreamDetector::feed(ThreadId thread, PageNum page) {
  if (thread < 0 || thread >= num_threads()) {
    throw std::invalid_argument("StreamDetector: thread " +
                                std::to_string(thread) + " out of range");
  }
  std::vector<PageNum>& window = windows_[static_cast<std::size_t>(thread)];
  // A repeat of the MRU page (most accesses of a streamed trace) leaves the
  // window as it is. Any other page is searched from the MRU end, where
  // recently touched pages sit; a window never holds a page twice, so the
  // reverse search finds the one copy a forward search would.
  if (window.empty() || window.back() != page) {
    const auto hit = std::find(window.rbegin(), window.rend(), page);
    if (hit != window.rend()) {
      window.erase(std::prev(hit.base()));
    } else if (window.size() >=
               static_cast<std::size_t>(config_.window_pages)) {
      window.erase(window.begin());
    }
    window.push_back(page);
  }
  ++events_;
  if (events_ % config_.sweep_every == 0) sweep();
}

void StreamDetector::sweep() {
  page_entries_.clear();
  for (ThreadId t = 0; t < num_threads(); ++t) {
    for (const PageNum page : windows_[static_cast<std::size_t>(t)]) {
      page_entries_.emplace_back(page, t);
    }
  }
  // A window never holds a page twice (feed() and restore() keep it so),
  // which add_shared_pages needs for its C(k, 2) count.
  std::sort(page_entries_.begin(), page_entries_.end());
  add_shared_pages(page_entries_, matrix_);
  ++sweeps_;
}

std::size_t StreamDetector::memory_bytes() const {
  // Every tile, not the tiles allocated so far: admission charges this
  // before the first event, so it must bound what the matrix can grow to.
  std::size_t bytes = CommMatrix::worst_case_bytes(matrix_.size());
  for (const auto& w : windows_) bytes += w.capacity() * sizeof(PageNum);
  bytes += page_entries_.capacity() * sizeof(page_entries_[0]);
  return bytes;
}

StreamDetectorState StreamDetector::state() const {
  StreamDetectorState s;
  s.matrix = matrix_;
  s.events = events_;
  s.sweeps = sweeps_;
  s.windows = windows_;
  return s;
}

void StreamDetector::restore(const StreamDetectorState& state) {
  if (state.matrix.size() != matrix_.size()) {
    throw std::invalid_argument(
        "StreamDetector::restore: matrix size mismatch");
  }
  if (state.windows.size() != windows_.size()) {
    throw std::invalid_argument(
        "StreamDetector::restore: window count mismatch");
  }
  for (const auto& w : state.windows) {
    if (w.size() > static_cast<std::size_t>(config_.window_pages)) {
      throw std::invalid_argument(
          "StreamDetector::restore: window exceeds configured size");
    }
    // A repeated page would count as two sharers in every sweep.
    std::vector<PageNum> sorted = w;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument(
          "StreamDetector::restore: window holds a page twice");
    }
  }
  matrix_ = state.matrix;
  events_ = state.events;
  sweeps_ = state.sweeps;
  // Element-wise assign keeps each window's reserved capacity.
  for (std::size_t t = 0; t < windows_.size(); ++t) {
    windows_[t].assign(state.windows[t].begin(), state.windows[t].end());
  }
}

}  // namespace tlbmap
