// Incremental sharing detection over a streamed trace (DESIGN.md Sec. 16).
//
// The batch detectors (SM/HM) observe a *simulated machine's* TLBs; the
// mapping service has no machine — only per-thread trace streams arriving
// in fragments. The StreamDetector reconstructs the paper's HM view from
// the stream alone: each thread keeps a small LRU window of recently
// touched pages (its TLB stand-in), and every `sweep_every` fed accesses a
// sweep intersects the windows with the HM sweep's grouping
// (add_shared_pages in detect/shared_pages.hpp): C(k, 2) pair counts for
// every page resident in >= 2 windows, added straight into the matrix.
//
// Everything is bounded by construction: windows are fixed-size, the
// matrix never exceeds CommMatrix::worst_case_bytes(threads), and windows
// and sweep scratch are reserved once in the constructor — the service's
// per-tenant memory accounting leans on memory_bytes() being an honest,
// deterministic upper bound from the moment a session is admitted.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "detect/comm_matrix.hpp"
#include "sim/types.hpp"

namespace tlbmap {

struct StreamDetectorConfig {
  /// Pages remembered per thread (the TLB-entry stand-in; paper-scale TLBs
  /// hold 64-512 entries).
  int window_pages = 64;
  /// Fed access events between sweeps (the streaming analogue of the HM
  /// detector's cycle interval).
  std::uint64_t sweep_every = 4096;

  /// Throws std::invalid_argument on a non-positive window or cadence
  /// (matching the config validate() style of the repo).
  void validate() const;
};

/// Serializable snapshot (service session checkpoints): restoring into a
/// fresh detector of the same shape reproduces all future sweeps exactly.
struct StreamDetectorState {
  CommMatrix matrix{1};
  std::uint64_t events = 0;
  std::uint64_t sweeps = 0;
  /// Per-thread windows in LRU order (front = coldest).
  std::vector<std::vector<PageNum>> windows;

  bool operator==(const StreamDetectorState&) const = default;
};

class StreamDetector {
 public:
  StreamDetector(int num_threads, StreamDetectorConfig config = {});

  int num_threads() const { return static_cast<int>(windows_.size()); }
  const StreamDetectorConfig& config() const { return config_; }

  /// Records one access, plus a sweep when the cadence comes due. O(1) when
  /// the page repeats the thread's MRU page (the window is left as it is);
  /// otherwise the window is searched from the MRU end, O(depth of the hit)
  /// or O(window) on a miss. Out-of-range threads throw
  /// std::invalid_argument (the service quarantines before this can
  /// happen).
  void feed(ThreadId thread, PageNum page);

  /// Runs one sweep immediately (cadence-independent; the service forces
  /// one before each mapping decision so the matrix is current).
  void sweep();

  const CommMatrix& matrix() const { return matrix_; }
  std::uint64_t events() const { return events_; }
  std::uint64_t sweeps() const { return sweeps_; }

  /// Deterministic estimate of resident bytes (matrix + windows + sweep
  /// scratch) for the service's per-tenant budget accounting. The matrix
  /// is charged at CommMatrix::worst_case_bytes and windows and scratch
  /// are reserved at construction, so the value is fixed from construction
  /// on and bounds the detector however the matrix fills.
  std::size_t memory_bytes() const;

  /// Copies out / restores matrix, cursors and windows.
  StreamDetectorState state() const;
  /// Throws std::invalid_argument when the snapshot's shape (matrix size,
  /// window count or length) does not fit this detector, or when a window
  /// holds a page twice.
  void restore(const StreamDetectorState& state);

 private:
  StreamDetectorConfig config_;
  CommMatrix matrix_;
  std::uint64_t events_ = 0;
  std::uint64_t sweeps_ = 0;
  std::vector<std::vector<PageNum>> windows_;  ///< LRU order, MRU at back

  // Sweep scratch, reused so steady-state sweeps allocate nothing.
  std::vector<std::pair<PageNum, ThreadId>> page_entries_;
};

}  // namespace tlbmap
