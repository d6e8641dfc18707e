// Tests for the communication matrix and its accuracy metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault.hpp"
#include "detect/comm_matrix.hpp"

namespace tlbmap {
namespace {

TEST(CommMatrix, StartsZero) {
  CommMatrix m(4);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.max(), 0u);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) EXPECT_EQ(m.at(a, b), 0u);
  }
}

TEST(CommMatrix, AddIsSymmetric) {
  CommMatrix m(4);
  m.add(1, 3, 5);
  EXPECT_EQ(m.at(1, 3), 5u);
  EXPECT_EQ(m.at(3, 1), 5u);
  EXPECT_EQ(m.total(), 5u);
}

TEST(CommMatrix, SelfCommunicationIgnored) {
  CommMatrix m(4);
  m.add(2, 2, 100);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.at(2, 2), 0u);
}

TEST(CommMatrix, AddAccumulates) {
  CommMatrix m(4);
  m.add(0, 1);
  m.add(1, 0, 2);
  EXPECT_EQ(m.at(0, 1), 3u);
  const UpperRows rows = m.upper_rows();
  ASSERT_EQ(rows.n, 4);
  ASSERT_EQ(rows.nonzeros(), 1u);
  EXPECT_EQ(rows.row_end(0) - rows.row_begin(0), 1u);
  EXPECT_EQ(rows.col[0], 1);
  EXPECT_EQ(rows.count[0], 3u);
  EXPECT_EQ(rows.row_begin(1), rows.row_end(1));  // (1, 0) lives in row 0
}

TEST(CommMatrix, BoundsChecked) {
  CommMatrix m(4);
  EXPECT_THROW(m.add(0, 4), std::out_of_range);
  EXPECT_THROW(m.add(-1, 2), std::out_of_range);
  EXPECT_THROW(m.at(4, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, -1), std::out_of_range);
  EXPECT_THROW(m.add(0, 4, 0), std::out_of_range);  // checked before amount
  EXPECT_THROW(CommMatrix(0), std::invalid_argument);
  // Failed adds leave nothing behind.
  EXPECT_EQ(m.upper_rows().nonzeros(), 0u);
  EXPECT_EQ(m, CommMatrix(4));
}

TEST(CommMatrix, MaxAndNormalized) {
  CommMatrix m(3);
  m.add(0, 1, 10);
  m.add(1, 2, 4);
  EXPECT_EQ(m.max(), 10u);
  EXPECT_DOUBLE_EQ(m.normalized(1, 2), 0.4);
  EXPECT_DOUBLE_EQ(m.normalized(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.normalized(0, 2), 0.0);
}

TEST(CommMatrix, NormalizedAllZeroSafe) {
  CommMatrix m(3);
  EXPECT_EQ(m.normalized(0, 1), 0.0);
}

TEST(CommMatrix, PlusEquals) {
  CommMatrix a(3), b(3);
  a.add(0, 1, 2);
  b.add(0, 1, 3);
  b.add(1, 2, 7);
  a += b;
  EXPECT_EQ(a.at(0, 1), 5u);
  EXPECT_EQ(a.at(1, 2), 7u);
  CommMatrix wrong(4);
  EXPECT_THROW(a += wrong, std::invalid_argument);
}

TEST(CommMatrix, Decay) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.decay(0.5);
  EXPECT_EQ(m.at(0, 1), 50u);
  m.decay(0.0);
  EXPECT_EQ(m.at(0, 1), 0u);
}

TEST(CommMatrix, DecayRoundsToNearest) {
  CommMatrix m(3);
  m.add(0, 1, 3);
  m.add(1, 2, 1);
  m.decay(0.6);
  // 3 * 0.6 = 1.8 rounds to 2 and 1 * 0.6 = 0.6 rounds to 1 — truncation
  // would bias both down and erase the small-but-real edge in one epoch.
  EXPECT_EQ(m.at(0, 1), 2u);
  EXPECT_EQ(m.at(1, 2), 1u);
  EXPECT_EQ(m.max(), 2u);
}

TEST(CommMatrix, DecayTiesRoundTowardZero) {
  // At the default ageing factor 0.5, odd cells land exactly on .5: ties
  // go toward zero so every nonzero cell strictly shrinks (rounding ties
  // up would keep a weight-1 edge alive forever).
  CommMatrix m(3);
  m.add(0, 1, 5);
  m.add(1, 2, 1);
  m.decay(0.5);
  EXPECT_EQ(m.at(0, 1), 2u);
  EXPECT_EQ(m.at(1, 2), 0u);
}

TEST(CommMatrix, CounterSaturatesAtMax) {
  // A wrap at 2^64 would invert the hottest edge into the coldest; the
  // counters saturate instead (DESIGN.md Sec. 11).
  CommMatrix m(3);
  m.add(0, 1, CommMatrix::kCounterMax - 5);
  m.add(0, 1, 100);  // would wrap without saturation
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  m.add(0, 1, 1);  // already saturated: stays pinned
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  EXPECT_EQ(m.max(), CommMatrix::kCounterMax);

  // operator+= saturates too.
  CommMatrix a(3), b(3);
  a.add(0, 1, CommMatrix::kCounterMax - 1);
  b.add(0, 1, 7);
  a += b;
  EXPECT_EQ(a.at(0, 1), CommMatrix::kCounterMax);

  // Decay of a saturated cell stays in range (no double->u64 overflow UB).
  m.decay(1.0);
  EXPECT_EQ(m.at(0, 1), CommMatrix::kCounterMax);
  m.decay(0.5);
  EXPECT_LT(m.at(0, 1), CommMatrix::kCounterMax);
}

TEST(CommMatrix, DecayRejectsNonFiniteFactor) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.decay(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(m.at(0, 1), 0u);  // NaN treated as 0: reset, never poisoned
  m.add(0, 1, 100);
  m.decay(-2.0);
  EXPECT_EQ(m.at(0, 1), 0u);
}

TEST(CommMatrixHealth, ClassifiesDegenerateShapes) {
  CommMatrix empty(4);
  EXPECT_TRUE(empty.health().empty);
  EXPECT_TRUE(empty.health().degenerate());
  EXPECT_STREQ(empty.health().describe(), "empty");

  CommMatrix uniform(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) uniform.add(a, b, 9);
  }
  EXPECT_TRUE(uniform.health().uniform);
  EXPECT_TRUE(uniform.health().degenerate());
  EXPECT_STREQ(uniform.health().describe(), "uniform");

  CommMatrix ok(4);
  ok.add(0, 1, 10);
  ok.add(2, 3, 4);
  EXPECT_FALSE(ok.health().degenerate());
  EXPECT_STREQ(ok.health().describe(), "ok");

  CommMatrix saturated(3);
  saturated.add(0, 1, CommMatrix::kCounterMax);
  saturated.add(1, 2, 5);
  EXPECT_TRUE(saturated.health().saturated);
  EXPECT_FALSE(saturated.health().degenerate());  // still mappable signal
  EXPECT_STREQ(saturated.health().describe(), "saturated");

  // A 1x1 matrix has no pairs at all: empty, never uniform.
  CommMatrix one(1);
  EXPECT_TRUE(one.health().empty);
  EXPECT_FALSE(one.health().uniform);
}

TEST(CommMatrix, MaxTracksAllMutations) {
  CommMatrix m(3);
  m.add(0, 1, 10);
  m.add(1, 2, 4);
  EXPECT_EQ(m.max(), 10u);
  m.decay(0.25);  // 10 -> 2 (2.5 ties toward zero), 4 -> 1
  EXPECT_EQ(m.max(), 2u);
  CommMatrix other(3);
  other.add(1, 2, 20);
  m += other;
  EXPECT_EQ(m.max(), 21u);
}

TEST(CommMatrix, PairsByWeightOrdered) {
  CommMatrix m(4);
  m.add(0, 1, 1);
  m.add(2, 3, 9);
  m.add(0, 3, 5);
  const auto pairs = m.pairs_by_weight();
  ASSERT_EQ(pairs.size(), 6u);  // all pairs of 4 threads
  EXPECT_EQ(pairs[0], (std::pair<ThreadId, ThreadId>{2, 3}));
  EXPECT_EQ(pairs[1], (std::pair<ThreadId, ThreadId>{0, 3}));
  EXPECT_EQ(pairs[2], (std::pair<ThreadId, ThreadId>{0, 1}));
}

TEST(CommMatrix, HeatmapShapeAndShading) {
  CommMatrix m(3);
  m.add(0, 1, 100);
  m.add(1, 2, 1);
  const std::string art = m.heatmap();
  // 1 header + 3 rows.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  // The strongest pair renders with the darkest glyph.
  EXPECT_NE(art.find('@'), std::string::npos);
  // Diagonal stays blank: row for thread 0 has a blank at column 0.
  EXPECT_EQ(art.find('!'), std::string::npos);
}

TEST(CommMatrix, CosineIdenticalIsOne) {
  CommMatrix a(4);
  a.add(0, 1, 3);
  a.add(2, 3, 4);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, a), 1.0, 1e-12);
}

TEST(CommMatrix, CosineScaleInvariant) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 3);
  a.add(2, 3, 4);
  b.add(0, 1, 30);
  b.add(2, 3, 40);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, b), 1.0, 1e-12);
}

TEST(CommMatrix, CosineOrthogonalIsZero) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 5);
  b.add(2, 3, 5);
  EXPECT_NEAR(CommMatrix::cosine_similarity(a, b), 0.0, 1e-12);
}

TEST(CommMatrix, CosineEmptySafe) {
  CommMatrix a(4), b(4);
  a.add(0, 1, 5);
  EXPECT_EQ(CommMatrix::cosine_similarity(a, b), 0.0);
  EXPECT_EQ(CommMatrix::cosine_similarity(b, b), 0.0);
}

TEST(CommMatrix, RankCorrelationPerfect) {
  CommMatrix a(4), b(4);
  int w = 1;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      a.add(i, j, static_cast<std::uint64_t>(w));
      b.add(i, j, static_cast<std::uint64_t>(w * 10));
      ++w;
    }
  }
  EXPECT_NEAR(CommMatrix::rank_correlation(a, b), 1.0, 1e-12);
}

TEST(CommMatrix, RankCorrelationInverted) {
  CommMatrix a(4), b(4);
  int w = 1;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      a.add(i, j, static_cast<std::uint64_t>(w));
      b.add(i, j, static_cast<std::uint64_t>(100 - w));
      ++w;
    }
  }
  EXPECT_NEAR(CommMatrix::rank_correlation(a, b), -1.0, 1e-12);
}

TEST(CommMatrix, SizeMismatchThrows) {
  CommMatrix a(4), b(6);
  EXPECT_THROW(CommMatrix::cosine_similarity(a, b), std::invalid_argument);
  EXPECT_THROW(CommMatrix::rank_correlation(a, b), std::invalid_argument);
}

// Manycore accumulator audit (N >= 256): per-cell counters saturate, but
// total() sums ~N^2/2 of them — at 256 threads, 32640 near-max cells would
// wrap a naive u64 sum ~16k times and could land anywhere, including on a
// tiny value that misreports a white-hot matrix as idle. total() must
// saturate instead.
TEST(CommMatrix, TotalSaturatesAtManycoreScale) {
  const int n = 256;
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      m.add(a, b, CommMatrix::kCounterMax - 3);
    }
  }
  EXPECT_EQ(m.total(), CommMatrix::kCounterMax);
  EXPECT_EQ(m.max(), CommMatrix::kCounterMax - 3);
}

// Below the saturation point the sum stays exact — saturation is a ceiling,
// not a rescale.
TEST(CommMatrix, TotalExactWhenFarFromMax) {
  const int n = 256;
  CommMatrix m(n);
  std::uint64_t expected = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const std::uint64_t w = static_cast<std::uint64_t>(a + b + 1);
      m.add(a, b, w);
      expected += w;
    }
  }
  EXPECT_EQ(m.total(), expected);
}

// ---------------------------------------------------------------------------
// Tiled layout. The matrix stores its upper triangle in 8x8 tiles allocated
// on first nonzero; every test below checks it against a plain dense model
// at sizes on both sides of tile edges.

/// Dense n x n reference with the matrix's documented semantics.
class DenseModel {
 public:
  explicit DenseModel(int n)
      : n_(n),
        cells_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {}

  std::uint64_t at(int a, int b) const { return cells_[index(a, b)]; }
  void set(int a, int b, std::uint64_t v) {
    cells_[index(a, b)] = v;
    cells_[index(b, a)] = v;
  }
  void add(int a, int b, std::uint64_t amount) {
    if (a == b) return;
    const std::uint64_t c = at(a, b);
    set(a, b, c + amount < c ? CommMatrix::kCounterMax : c + amount);
  }
  void add(const DenseModel& other) {
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) add(a, b, other.at(a, b));
    }
  }
  void decay(double factor) {
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) {
        const double x =
            std::ceil(static_cast<double>(at(a, b)) * factor - 0.5);
        set(a, b,
            x >= static_cast<double>(CommMatrix::kCounterMax)
                ? CommMatrix::kCounterMax
                : static_cast<std::uint64_t>(x > 0.0 ? x : 0.0));
      }
    }
  }
  /// Same draws, in the same order, as CommMatrix::apply_faults.
  void apply_faults(FaultInjector& injector) {
    std::vector<std::uint64_t> tri;
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) tri.push_back(at(a, b));
    }
    for (std::size_t i = 0; i < tri.size(); ++i) {
      if (injector.flip_cell()) {
        std::swap(tri[i], tri[injector.draw_index(tri.size())]);
      }
      if (injector.zero_cell()) tri[i] = 0;
    }
    std::size_t i = 0;
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) set(a, b, tri[i++]);
    }
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) {
        sum = sum + at(a, b) < sum ? CommMatrix::kCounterMax : sum + at(a, b);
      }
    }
    return sum;
  }
  std::uint64_t max() const {
    return *std::max_element(cells_.begin(), cells_.end());
  }

 private:
  std::size_t index(int a, int b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(b);
  }
  int n_;
  std::vector<std::uint64_t> cells_;
};

/// Every observable of `m` equals the model's: cells both ways round,
/// total, max, health, and a sorted view (and its CSR snapshot) that lists
/// exactly the nonzero upper cells, strictly ascending.
void expect_matches(const CommMatrix& m, const DenseModel& ref, int n) {
  ASSERT_EQ(m.size(), n);
  std::size_t nonzero = 0;
  std::uint64_t lo = CommMatrix::kCounterMax;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(m.at(a, b), ref.at(a, b)) << "n=" << n << " (" << a << ","
                                          << b << ")";
      if (a < b) {
        nonzero += ref.at(a, b) != 0;
        lo = std::min(lo, ref.at(a, b));
      }
    }
  }
  EXPECT_EQ(m.total(), ref.total());
  EXPECT_EQ(m.max(), ref.max());
  const std::size_t pairs =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
  const CommMatrix::Health h = m.health();
  EXPECT_EQ(h.empty, ref.max() == 0);
  EXPECT_EQ(h.uniform, ref.max() != 0 && pairs > 1 && lo == ref.max());
  EXPECT_EQ(h.saturated, ref.max() == CommMatrix::kCounterMax);

  struct Cell {
    int a, b;
    std::uint64_t count;
  };
  std::vector<Cell> cells;
  m.for_each_nonzero([&](int a, int b, std::uint64_t count) {
    if (!cells.empty()) {
      const Cell& last = cells.back();
      EXPECT_TRUE(a > last.a || (a == last.a && b > last.b))
          << "(" << a << "," << b << ") not after (" << last.a << ","
          << last.b << ")";
    }
    EXPECT_LT(a, b);
    EXPECT_LT(b, n);
    EXPECT_NE(count, 0u);
    EXPECT_EQ(count, ref.at(a, b));
    cells.push_back({a, b, count});
  });
  EXPECT_EQ(cells.size(), nonzero);

  const UpperRows rows = m.upper_rows();
  ASSERT_EQ(rows.n, n);
  ASSERT_EQ(rows.begin.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(rows.nonzeros(), cells.size());
  std::size_t next = 0;
  for (int a = 0; a < n; ++a) {
    for (std::size_t e = rows.row_begin(a); e < rows.row_end(a); ++e) {
      EXPECT_EQ(e, next);
      EXPECT_EQ(a, cells[next].a);
      EXPECT_EQ(rows.col[e], cells[next].b);
      EXPECT_EQ(rows.count[e], cells[next].count);
      ++next;
    }
  }
  EXPECT_LE(m.memory_bytes(), CommMatrix::worst_case_bytes(n));
}

constexpr int kTileEdgeSizes[] = {1, 2, 7, 8, 9, 63, 64, 65, 257};

TEST(CommMatrixTiles, RandomizedDifferentialAgainstDenseModel) {
  for (const int n : kTileEdgeSizes) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 7919);
    const auto thread = [&] {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    CommMatrix m(n);
    DenseModel ref(n);
    // Sparse adds in both argument orders, zero amounts and self pairs
    // included, then a few counters driven into saturation.
    const int adds = 4 * n + 16;
    for (int k = 0; k < adds; ++k) {
      const int a = thread();
      const int b = thread();
      const std::uint64_t amount = k % 5 == 0 ? 0 : rng() % 1000;
      m.add(a, b, amount);
      ref.add(a, b, amount);
    }
    for (int k = 0; k < 3 && n > 1; ++k) {
      const int a = thread();
      const int b = (a + 1 + k) % n;
      m.add(b, a, CommMatrix::kCounterMax - 2);
      ref.add(b, a, CommMatrix::kCounterMax - 2);
      m.add(a, b, 5);
      ref.add(a, b, 5);
    }
    expect_matches(m, ref, n);

    // += with a matrix built from other pairs, in the other argument order.
    CommMatrix other(n);
    DenseModel other_ref(n);
    for (int k = 0; k < 2 * n; ++k) {
      const int a = thread();
      const int b = thread();
      const std::uint64_t amount = rng() % 50;
      other.add(b, a, amount);
      other_ref.add(b, a, amount);
    }
    m += other;
    ref.add(other_ref);
    expect_matches(m, ref, n);

    // Decay: cells that round to 0 must read 0 and leave the sorted view.
    m.decay(0.01);
    ref.decay(0.01);
    expect_matches(m, ref, n);
    m.decay(0.5);
    ref.decay(0.5);
    expect_matches(m, ref, n);

    // Faults move cells anywhere in the triangle, tiles included.
    FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(n);
    plan.matrix_flip_rate = 0.3;
    plan.matrix_zero_rate = 0.1;
    FaultInjector injector(plan, 11);
    FaultInjector ref_injector(plan, 11);
    m.apply_faults(injector);
    ref.apply_faults(ref_injector);
    expect_matches(m, ref, n);
  }
}

TEST(CommMatrixTiles, EqualityIgnoresAddOrder) {
  for (const int n : kTileEdgeSizes) {
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; b += 3) pairs.emplace_back(a, b);
    }
    CommMatrix forward(n);
    CommMatrix backward(n);
    for (const auto& [a, b] : pairs) {
      forward.add(a, b, static_cast<std::uint64_t>(a + b + 1));
    }
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
      backward.add(it->second, it->first,
                   static_cast<std::uint64_t>(it->first + it->second + 1));
    }
    EXPECT_EQ(forward, backward) << "n=" << n;
    // A tile allocated and then zeroed again equals one never allocated.
    CommMatrix touched(n);
    if (n > 1) {
      touched.add(0, n - 1, 1);
      touched.decay(0.0);
    }
    EXPECT_EQ(touched, CommMatrix(n)) << "n=" << n;
    if (n > 1) {
      backward.add(0, n - 1, 1);
      EXPECT_NE(forward, backward) << "n=" << n;
    }
  }
  EXPECT_NE(CommMatrix(8), CommMatrix(9));
}

TEST(CommMatrixTiles, ZeroAddAllocatesNoTile) {
  CommMatrix m(64);
  const std::size_t empty = m.memory_bytes();
  m.add(3, 50, 0);
  m.add(50, 3, 0);
  EXPECT_EQ(m.memory_bytes(), empty);
  EXPECT_EQ(m.upper_rows().nonzeros(), 0u);
  m.add(3, 50, 1);
  EXPECT_GT(m.memory_bytes(), empty);
}

TEST(CommMatrixTiles, FullMatrixStaysWithinWorstCaseBytes) {
  for (const int n : {8, 9, 64, 65}) {
    CommMatrix m(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) m.add(b, a, 1);
    }
    EXPECT_LE(m.memory_bytes(), CommMatrix::worst_case_bytes(n)) << n;
    const CommMatrix copy = m;
    EXPECT_LE(copy.memory_bytes(), CommMatrix::worst_case_bytes(n)) << n;
  }
  // Off a tile edge a dense n x n charge is no bound: n = 9 needs three
  // 512-byte tiles against 648 bytes of cells.
  EXPECT_GE(CommMatrix::worst_case_bytes(9), std::size_t{3 * 512});
}

TEST(CommMatrixTiles, ManycoreBandIsSmall) {
  // A +-3 neighbour band over 4096 threads, the shape of a manycore
  // detected matrix: a dense table would hold 128 MiB.
  const int n = 4096;
  CommMatrix m(n);
  for (int a = 0; a < n; ++a) {
    for (int d = 1; d <= 3 && a + d < n; ++d) m.add(a, a + d, 100);
  }
  EXPECT_LT(m.memory_bytes(), std::size_t{8} << 20);
  EXPECT_EQ(m.upper_rows().nonzeros(),
            static_cast<std::size_t>(3 * n - 6));
  EXPECT_EQ(m.at(4095, 4092), 100u);
  EXPECT_EQ(m.at(0, 4), 0u);
}

}  // namespace
}  // namespace tlbmap
