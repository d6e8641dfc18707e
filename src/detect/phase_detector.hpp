// Phase-change detection for online remapping (DESIGN.md Sec. 17).
//
// A phase is a stretch of execution whose sharing pattern is stable. The
// detector watches two signals against a reference snapshot taken when the
// current phase began:
//
//   1. matrix drift — cosine similarity between the live communication
//      matrix and the phase-reference matrix (the same drift machinery the
//      service's DecisionCache uses to trigger re-matching);
//   2. per-thread TLB miss-rate deltas — a thread whose miss rate moved by
//      more than `miss_rate_delta` (relative) between the reference window
//      and the current window changed its working set even if the pairwise
//      sharing shape happens to look similar.
//
// Either signal past its threshold starts a new phase: the epoch counter
// bumps and the reference re-anchors to the current matrix/window. Epochs
// are monotone and deterministic — a pure function of the observation
// sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/comm_matrix.hpp"
#include "sim/types.hpp"

namespace tlbmap {

struct PhaseDetectorConfig {
  /// New phase when cosine similarity between the live matrix and the
  /// phase-reference matrix falls below this. 0 disables the matrix signal
  /// (cosine is never negative for count matrices).
  double drift_threshold = 0.75;
  /// New phase when some thread's window miss rate moved by more than this
  /// fraction of its reference rate (relative delta with a small absolute
  /// floor, so a 0 -> 0.1 % wiggle does not count as a phase).
  double miss_rate_delta = 0.75;

  /// Throws std::invalid_argument when a threshold is negative, non-finite,
  /// or (for drift) outside [0, 1].
  void validate() const;
};

class PhaseDetector {
 public:
  explicit PhaseDetector(int num_threads, PhaseDetectorConfig config = {});

  /// Accumulates one access into the current observation window.
  void on_access(ThreadId thread, bool tlb_miss);

  /// Consumes the current window against `matrix` (the live, un-decayed
  /// communication matrix). Returns true when a new phase begins — the
  /// epoch has already bumped and the reference re-anchored. Degenerate
  /// matrices neither arm nor drift the matrix signal (they carry no
  /// shape), but miss-rate deltas still fire once armed.
  bool observe(const CommMatrix& matrix);

  std::uint64_t epoch() const { return epoch_; }
  const PhaseDetectorConfig& config() const { return config_; }
  int num_threads() const { return num_threads_; }

 private:
  void anchor(const CommMatrix& matrix);

  PhaseDetectorConfig config_;
  int num_threads_;
  std::uint64_t epoch_ = 0;
  bool has_reference_ = false;
  CommMatrix reference_;
  std::vector<std::uint64_t> ref_accesses_;
  std::vector<std::uint64_t> ref_misses_;
  std::vector<std::uint64_t> window_accesses_;
  std::vector<std::uint64_t> window_misses_;
};

}  // namespace tlbmap
