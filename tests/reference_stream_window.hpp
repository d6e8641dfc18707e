// Literal reference for StreamDetector (DESIGN.md Sec. 16), built on the
// public CommMatrix API only. Each thread's window is the plain LRU list:
// every access searches it forward from the coldest end, erases the page
// where found (else evicts the coldest page of a full window) and appends
// it as the MRU entry. A sweep counts each thread pair's common pages by
// intersecting sorted copies of the two windows, the paper's pairwise walk
// (Sec. IV-B), instead of the detector's sorted (page, thread) grouping.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "detect/comm_matrix.hpp"
#include "detect/stream_detector.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class ReferenceStreamWindow {
 public:
  ReferenceStreamWindow(int num_threads, StreamDetectorConfig config)
      : config_(config),
        matrix_(num_threads),
        windows_(static_cast<std::size_t>(num_threads)) {}

  void feed(ThreadId thread, PageNum page) {
    std::vector<PageNum>& window = windows_[static_cast<std::size_t>(thread)];
    const auto it = std::find(window.begin(), window.end(), page);
    if (it != window.end()) {
      window.erase(it);
    } else if (window.size() >=
               static_cast<std::size_t>(config_.window_pages)) {
      window.erase(window.begin());
    }
    window.push_back(page);
    ++events_;
    if (events_ % config_.sweep_every == 0) sweep();
  }

  void sweep() {
    std::vector<std::vector<PageNum>> sorted = windows_;
    for (auto& w : sorted) std::sort(w.begin(), w.end());
    const auto n = static_cast<ThreadId>(sorted.size());
    for (ThreadId a = 0; a < n; ++a) {
      for (ThreadId b = a + 1; b < n; ++b) {
        const auto& wa = sorted[static_cast<std::size_t>(a)];
        const auto& wb = sorted[static_cast<std::size_t>(b)];
        std::vector<PageNum> common;
        std::set_intersection(wa.begin(), wa.end(), wb.begin(), wb.end(),
                              std::back_inserter(common));
        if (!common.empty()) matrix_.add(a, b, common.size());
      }
    }
    ++sweeps_;
  }

  const CommMatrix& matrix() const { return matrix_; }
  std::uint64_t events() const { return events_; }
  std::uint64_t sweeps() const { return sweeps_; }
  /// LRU order, coldest first (StreamDetectorState::windows' order).
  const std::vector<std::vector<PageNum>>& windows() const {
    return windows_;
  }

 private:
  StreamDetectorConfig config_;
  CommMatrix matrix_;
  std::uint64_t events_ = 0;
  std::uint64_t sweeps_ = 0;
  std::vector<std::vector<PageNum>> windows_;
};

}  // namespace tlbmap
