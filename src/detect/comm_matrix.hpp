// The communication matrix (paper Sec. III-C): pairwise amount of
// communication between threads, built by the detectors and consumed by the
// mapping algorithms. Cell (i, j) counts detected sharing events between
// threads i and j; the matrix is symmetric with a zero diagonal.
//
// Storage follows the signal, not n^2: the upper triangle is cut into 8x8
// tiles of counters, a ceil(n/8)^2 index points to them, and a tile is
// allocated on its first nonzero. Detected matrices at manycore scale hold a
// handful of partners per thread, so a 4096-thread band touches ~1k tiles
// instead of 16M cells. add() and at() stay O(1) with one extra load;
// readers that want every nonzero take the sorted for_each_nonzero() view.
//
// Also provides the presentation and accuracy tooling used by the benches:
// ASCII heatmaps (Figures 4/5) and similarity metrics against a ground-truth
// matrix (our quantitative extension of the paper's visual comparison).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "detect/upper_rows.hpp"
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

  /// Bytes a matrix of `num_threads` holds with every tile allocated: an
  /// upper bound on memory_bytes() whatever is added, for pessimistic
  /// admission accounting.
  static std::size_t worst_case_bytes(int num_threads);

  /// Bytes held now: the tile index plus the allocated tiles.
  std::size_t memory_bytes() const;

  /// Records `amount` units of communication between two distinct threads.
  /// Self-communication is meaningless and ignored. Saturates at
  /// kCounterMax (never wraps).
  void add(ThreadId a, ThreadId b, std::uint64_t amount = 1);

  std::uint64_t at(ThreadId a, ThreadId b) const;

  /// The matrix's sorted view: calls f(a, b, count) for every nonzero cell
  /// with a < b, in ascending (a, b) order. O(nonzeros + (n/8)^2) and
  /// allocation-light: the way to read a sparse matrix whole.
  template <typename F>
  void for_each_nonzero(F&& f) const;

  /// for_each_nonzero's cells stored as compressed upper rows: the snapshot
  /// format of the observability layer, and random access to rows.
  UpperRows upper_rows() const;

  /// Sum over the upper triangle (each pair counted once).
  std::uint64_t total() const;

  /// Largest cell value. O(1): maintained incrementally by every mutator so
  /// normalized()/heatmap() callers looping over all pairs stay Theta(n^2)
  /// instead of Theta(n^4).
  std::uint64_t max() const { return max_; }

  /// Cell scaled to [0, 1] by the matrix maximum.
  double normalized(ThreadId a, ThreadId b) const;

  CommMatrix& operator+=(const CommMatrix& other);

  /// Cell-exact equality (same size, same counts), whatever order the tiles
  /// were allocated in. The checkpoint layer's round-trip tests lean on this
  /// the way the fast-path differentials lean on MachineStats::operator==.
  bool operator==(const CommMatrix& other) const;

  /// Multiplies every cell by `factor` (ageing for dynamic re-detection),
  /// rounding to nearest so repeated decay does not silently truncate
  /// small-but-real edges to zero. Ties round toward zero, so ageing at
  /// factor 0.5 still strictly shrinks every nonzero cell.
  void decay(double factor);

  /// Evaluates the structural invariants (empty / uniform / saturated).
  /// O(allocated tiles); called once per mapping decision, not per add.
  Health health() const;

  /// Applies the injector's matrix faults to the upper triangle: each cell
  /// is independently swapped with a random other cell (flip) and/or zeroed
  /// per the plan's matrix_flip_rate / matrix_zero_rate. Deterministic per
  /// injector stream; symmetry and the max() cache are restored afterwards.
  void apply_faults(FaultInjector& injector);

  /// All pairs (a < b) ordered by decreasing communication.
  std::vector<std::pair<ThreadId, ThreadId>> pairs_by_weight() const;

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
  static constexpr int kTileShift = 3;
  static constexpr int kTileMask = (1 << kTileShift) - 1;
  static constexpr std::size_t kTileCells = std::size_t{1} << (2 * kTileShift);

  /// Tiles per side of the index: ceil(n / 8).
  static std::size_t tiles_per_side(int num_threads) {
    return (static_cast<std::size_t>(num_threads) + kTileMask) >> kTileShift;
  }
  /// Index entry of the tile holding cell (lo, hi), 0 <= lo <= hi.
  std::size_t tile_pos(ThreadId lo, ThreadId hi) const {
    return static_cast<std::size_t>(static_cast<unsigned>(lo) >> kTileShift) *
               side_ +
           (static_cast<unsigned>(hi) >> kTileShift);
  }
  /// Offset of cell (lo, hi) inside its tile.
  static std::size_t cell_pos(ThreadId lo, ThreadId hi) {
    return static_cast<std::size_t>(lo & kTileMask) << kTileShift |
           static_cast<std::size_t>(hi & kTileMask);
  }
  const std::uint64_t* tile(std::uint32_t slot) const {
    return tiles_.data() + static_cast<std::size_t>(slot) * kTileCells;
  }
  /// Orders a pair: lo = min(a, b), hi = max(a, b). Both picks hang on one
  /// comparison, which compilers turn into conditional moves, not a branch
  /// that random-order adds would mispredict.
  static void order(ThreadId a, ThreadId b, ThreadId& lo, ThreadId& hi) {
    const bool swap = a > b;
    lo = swap ? b : a;
    hi = swap ? a : b;
  }
  /// Allocates a zeroed tile for index entry `pos`.
  std::uint32_t allocate_tile(std::size_t pos);
  /// add() into a tile not allocated yet, out of line so add()'s hot path
  /// stays a load, an add and a store.
  void add_to_new_tile(std::size_t pos, std::size_t cell,
                       std::uint64_t amount);
  /// The upper triangle packed row by row: (a, b) for b > a, ascending.
  std::vector<std::uint64_t> packed_upper() const;

  int n_;
  std::size_t side_;  ///< tiles per side of the index
  /// Slot of the tile at each (row tile, column tile), or 0 while none is
  /// allocated. Slot 0 is a tile of zeros, so a read never branches; only
  /// entries with row tile <= column tile are ever set.
  std::vector<std::uint32_t> tile_of_;
  /// kTileCells counters per slot, cell (lo, hi) at
  /// slot * kTileCells + cell_pos(lo, hi). Only cells with lo < hi < n are
  /// ever nonzero: the lower half of diagonal tiles and columns past n
  /// stay 0, so readers may sum or compare whole tiles.
  std::vector<std::uint64_t> tiles_;
  std::uint64_t max_ = 0;  ///< invariant: max over tiles_
};

template <typename F>
void CommMatrix::for_each_nonzero(F&& f) const {
  // (first column, cells) of each allocated tile in the current tile row.
  std::vector<std::pair<ThreadId, const std::uint64_t*>> row_tiles;
  for (std::size_t ti = 0; ti < side_; ++ti) {
    row_tiles.clear();
    for (std::size_t tj = ti; tj < side_; ++tj) {
      const std::uint32_t slot = tile_of_[ti * side_ + tj];
      if (slot != 0) {
        row_tiles.emplace_back(static_cast<ThreadId>(tj << kTileShift),
                               tile(slot));
      }
    }
    if (row_tiles.empty()) continue;
    const auto first = static_cast<ThreadId>(ti << kTileShift);
    const ThreadId last = std::min(n_, first + kTileMask + 1);
    for (ThreadId a = first; a < last; ++a) {
      const std::size_t offset = static_cast<std::size_t>(a & kTileMask)
                                 << kTileShift;
      for (const auto& [column, cells] : row_tiles) {
        // In the diagonal tile only the cells right of a can be nonzero.
        for (ThreadId c = column == first ? (a & kTileMask) + 1 : 0;
             c <= kTileMask; ++c) {
          const std::uint64_t count =
              cells[offset + static_cast<std::size_t>(c)];
          if (count != 0) f(a, column + c, count);
        }
      }
    }
  }
}

}  // namespace tlbmap
