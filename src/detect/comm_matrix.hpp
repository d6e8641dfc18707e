// The communication matrix (paper Sec. III-C): pairwise amount of
// communication between threads, built by the detectors and consumed by the
// mapping algorithms. Cell (i, j) counts detected sharing events between
// threads i and j; the matrix is symmetric with a zero diagonal.
//
// Also provides the presentation and accuracy tooling used by the benches:
// ASCII heatmaps (Figures 4/5) and similarity metrics against a ground-truth
// matrix (our quantitative extension of the paper's visual comparison).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace tlbmap {

class FaultInjector;

class CommMatrix {
 public:
  /// Counter ceiling: every mutator saturates here instead of wrapping.
  /// A wrapped counter silently inverts the hottest edge into the coldest —
  /// the worst possible corruption for a mapping input — whereas a pinned
  /// maximum keeps the pair ranked first, which is the right degradation.
  static constexpr std::uint64_t kCounterMax = ~std::uint64_t{0};

  /// Structural invariants of a detected matrix, checked before mapping
  /// consumes it (DESIGN.md Sec. 11). A degenerate matrix carries no
  /// placement signal: mapping from it is noise, so callers fall back.
  struct Health {
    bool empty = false;      ///< total() == 0: nothing was detected
    bool uniform = false;    ///< all pairs equal (>0): no preference either
    bool saturated = false;  ///< some counter pinned at kCounterMax

    /// True when the matrix should not drive a mapping decision.
    bool degenerate() const { return empty || uniform; }
    /// Short label for logs/metrics ("ok", "empty", "uniform", "saturated").
    const char* describe() const;
  };

  explicit CommMatrix(int num_threads);

  int size() const { return n_; }

  /// Records `amount` units of communication between two distinct threads.
  /// Self-communication is meaningless and ignored. Saturates at
  /// kCounterMax (never wraps).
  void add(ThreadId a, ThreadId b, std::uint64_t amount = 1);

  std::uint64_t at(ThreadId a, ThreadId b) const;

  /// Row `a` (cell (a, b) at index b): one bounds check per row instead of
  /// one per cell, for callers that scan the whole matrix.
  std::span<const std::uint64_t> row(ThreadId a) const;

  /// Sum over the upper triangle (each pair counted once).
  std::uint64_t total() const;

  /// Largest cell value. O(1): maintained incrementally by every mutator so
  /// normalized()/heatmap() callers looping over all pairs stay Theta(n^2)
  /// instead of Theta(n^4).
  std::uint64_t max() const { return max_; }

  /// Cell scaled to [0, 1] by the matrix maximum.
  double normalized(ThreadId a, ThreadId b) const;

  CommMatrix& operator+=(const CommMatrix& other);

  /// Cell-exact equality (same size, same counts). The checkpoint layer's
  /// round-trip tests lean on this the way the fast-path differentials lean
  /// on MachineStats::operator==.
  bool operator==(const CommMatrix&) const = default;

  /// Multiplies every cell by `factor` (ageing for dynamic re-detection),
  /// rounding to nearest so repeated decay does not silently truncate
  /// small-but-real edges to zero. Ties round toward zero, so ageing at
  /// factor 0.5 still strictly shrinks every nonzero cell.
  void decay(double factor);

  /// Evaluates the structural invariants (empty / uniform / saturated).
  /// O(n^2); called once per mapping decision, not per add.
  Health health() const;

  /// Applies the injector's matrix faults to the upper triangle: each cell
  /// is independently swapped with a random other cell (flip) and/or zeroed
  /// per the plan's matrix_flip_rate / matrix_zero_rate. Deterministic per
  /// injector stream; symmetry and the max() cache are restored afterwards.
  void apply_faults(FaultInjector& injector);

  /// All pairs (a < b) ordered by decreasing communication.
  std::vector<std::pair<ThreadId, ThreadId>> pairs_by_weight() const;

  /// Full (symmetric) matrix as rows of counts — the observability layer's
  /// snapshot format for heatmap dumps.
  std::vector<std::vector<std::uint64_t>> rows() const;

  /// ASCII heatmap in the style of the paper's Figures 4 and 5: darker
  /// glyphs mean more communication.
  std::string heatmap() const;

  /// Cosine similarity of the upper triangles, in [0, 1] ([-1,1] in theory,
  /// but counts are non-negative). 1 = identical shape.
  static double cosine_similarity(const CommMatrix& a, const CommMatrix& b);

  /// Spearman rank correlation of the upper triangles, in [-1, 1]. Robust to
  /// the (arbitrary) magnitude differences between detectors.
  static double rank_correlation(const CommMatrix& a, const CommMatrix& b);

 private:
  std::size_t index(ThreadId a, ThreadId b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(b);
  }
  std::vector<double> upper_triangle() const;

  int n_;
  std::vector<std::uint64_t> cells_;
  std::uint64_t max_ = 0;  ///< invariant: max over cells_
};

}  // namespace tlbmap
