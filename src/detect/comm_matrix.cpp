#include "detect/comm_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/fault.hpp"

namespace tlbmap {

namespace {

/// Saturating 64-bit add: pins at CommMatrix::kCounterMax instead of
/// wrapping. Wrapping would turn the hottest pair into the coldest and
/// silently invert the mapping decision.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? CommMatrix::kCounterMax : s;
}

}  // namespace

CommMatrix::CommMatrix(int num_threads) : n_(num_threads) {
  if (num_threads <= 0) {
    throw std::invalid_argument("CommMatrix: non-positive thread count");
  }
  side_ = tiles_per_side(num_threads);
  // Every slot, the zero tile included, must fit the 32-bit index.
  if (side_ * (side_ + 1) / 2 >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("CommMatrix: thread count too large");
  }
  tile_of_.assign(side_ * side_, 0);
  tiles_.assign(kTileCells, 0);
}

std::size_t CommMatrix::worst_case_bytes(int num_threads) {
  const std::size_t side = tiles_per_side(std::max(num_threads, 0));
  const std::size_t slots = side * (side + 1) / 2 + 1;
  return side * side * sizeof(std::uint32_t) +
         slots * kTileCells * sizeof(std::uint64_t);
}

std::size_t CommMatrix::memory_bytes() const {
  return tile_of_.capacity() * sizeof(std::uint32_t) +
         tiles_.capacity() * sizeof(std::uint64_t);
}

std::uint32_t CommMatrix::allocate_tile(std::size_t pos) {
  // Grow geometrically but never past every tile allocated, so
  // memory_bytes() stays within worst_case_bytes().
  const std::size_t limit = (side_ * (side_ + 1) / 2 + 1) * kTileCells;
  if (tiles_.size() == tiles_.capacity()) {
    tiles_.reserve(std::min(2 * tiles_.capacity(), limit));
  }
  const auto slot = static_cast<std::uint32_t>(tiles_.size() / kTileCells);
  tiles_.resize(tiles_.size() + kTileCells, 0);
  tile_of_[pos] = slot;
  return slot;
}

[[gnu::noinline]] void CommMatrix::add_to_new_tile(std::size_t pos,
                                                   std::size_t cell,
                                                   std::uint64_t amount) {
  if (amount == 0) return;  // a zero add leaves the tile unallocated
  const std::uint32_t slot = allocate_tile(pos);
  tiles_[static_cast<std::size_t>(slot) * kTileCells + cell] = amount;
  max_ = std::max(max_, amount);
}

void CommMatrix::add(ThreadId a, ThreadId b, std::uint64_t amount) {
  ThreadId lo, hi;
  order(a, b, lo, hi);
  if (lo == hi) return;
  if (lo < 0 || hi >= n_) {
    throw std::out_of_range("CommMatrix::add: thread id out of range");
  }
  const std::size_t pos = tile_pos(lo, hi);
  const std::uint32_t slot = tile_of_[pos];
  if (slot == 0) [[unlikely]] {
    return add_to_new_tile(pos, cell_pos(lo, hi), amount);
  }
  std::uint64_t& cell =
      tiles_[static_cast<std::size_t>(slot) * kTileCells + cell_pos(lo, hi)];
  cell = sat_add(cell, amount);
  max_ = std::max(max_, cell);
}

std::uint64_t CommMatrix::at(ThreadId a, ThreadId b) const {
  ThreadId lo, hi;
  order(a, b, lo, hi);
  if (lo < 0 || hi >= n_) {
    throw std::out_of_range("CommMatrix::at: thread id out of range");
  }
  return tile(tile_of_[tile_pos(lo, hi)])[cell_pos(lo, hi)];
}

UpperRows CommMatrix::upper_rows() const {
  UpperRows v;
  v.n = n_;
  v.begin.assign(static_cast<std::size_t>(n_) + 1, 0);
  for_each_nonzero([&](ThreadId a, ThreadId b, std::uint64_t count) {
    ++v.begin[static_cast<std::size_t>(a) + 1];
    v.col.push_back(b);
    v.count.push_back(count);
  });
  std::partial_sum(v.begin.begin(), v.begin.end(), v.begin.begin());
  return v;
}

std::vector<std::uint64_t> CommMatrix::packed_upper() const {
  const std::size_t un = static_cast<std::size_t>(n_);
  std::vector<std::uint64_t> tri(un * (un - 1) / 2, 0);
  for_each_nonzero([&](ThreadId a, ThreadId b, std::uint64_t count) {
    // Rows a' < a hold n - 1 - a' pairs each; (a, b) is b - a - 1 into row a.
    const auto ua = static_cast<std::size_t>(a);
    tri[ua * (2 * un - ua - 1) / 2 + static_cast<std::size_t>(b - a - 1)] =
        count;
  });
  return tri;
}

std::uint64_t CommMatrix::total() const {
  // Saturating like every cell mutator: at N >= 256 threads a busy suite
  // holds n*(n-1)/2 > 32k cells, and a plain sum of hot cells can wrap —
  // inverting "enormous total" into "tiny total" for health checks. A
  // saturating sum of non-negative terms is order-free, so the tiles are
  // summed in slot order.
  std::uint64_t sum = 0;
  for (std::size_t i = kTileCells; i < tiles_.size(); ++i) {
    sum = sat_add(sum, tiles_[i]);
  }
  return sum;
}

double CommMatrix::normalized(ThreadId a, ThreadId b) const {
  if (max_ == 0) return 0.0;
  return static_cast<double>(at(a, b)) / static_cast<double>(max_);
}

CommMatrix& CommMatrix::operator+=(const CommMatrix& other) {
  if (other.n_ != n_) {
    throw std::invalid_argument("CommMatrix::operator+=: size mismatch");
  }
  for (std::size_t pos = 0; pos < tile_of_.size(); ++pos) {
    const std::uint32_t from = other.tile_of_[pos];
    if (from == 0) continue;
    const std::uint64_t* src = other.tile(from);
    if (std::all_of(src, src + kTileCells,
                    [](std::uint64_t c) { return c == 0; })) {
      continue;
    }
    std::uint32_t slot = tile_of_[pos];
    if (slot == 0) slot = allocate_tile(pos);
    std::uint64_t* dst =
        tiles_.data() + static_cast<std::size_t>(slot) * kTileCells;
    for (std::size_t c = 0; c < kTileCells; ++c) {
      dst[c] = sat_add(dst[c], src[c]);
      max_ = std::max(max_, dst[c]);
    }
  }
  return *this;
}

bool CommMatrix::operator==(const CommMatrix& other) const {
  if (n_ != other.n_) return false;
  for (std::size_t pos = 0; pos < tile_of_.size(); ++pos) {
    const std::uint64_t* x = tile(tile_of_[pos]);
    if (!std::equal(x, x + kTileCells, other.tile(other.tile_of_[pos]))) {
      return false;
    }
  }
  return true;
}

void CommMatrix::decay(double factor) {
  // NaN-free invariant: a non-finite or negative factor would poison every
  // cell through the double round-trip; treat it as "forget everything",
  // the conservative ageing for a corrupted parameter.
  if (!std::isfinite(factor) || factor < 0.0) factor = 0.0;
  std::uint64_t m = 0;
  // Zero cells stay zero, so only allocated tiles need visiting.
  for (std::size_t i = kTileCells; i < tiles_.size(); ++i) {
    std::uint64_t& c = tiles_[i];
    // Round to nearest, ties toward zero: ceil(x - 0.5). Plain truncation
    // biases every cell down by ~0.5 per epoch and erases small-but-real
    // edges; ties rounding *up* would make odd cells immortal at the
    // default ageing factor 0.5 (1 -> 0.5 -> 1 -> ...).
    const double scaled = std::ceil(static_cast<double>(c) * factor - 0.5);
    // Clamp both ends: casting a double >= 2^64 (saturated cell, factor
    // ~1) or negative (-0.0 from the tie rule) to uint64 is undefined.
    c = scaled >= static_cast<double>(kCounterMax)
            ? kCounterMax
            : static_cast<std::uint64_t>(scaled > 0.0 ? scaled : 0.0);
    m = std::max(m, c);
  }
  max_ = m;
}

const char* CommMatrix::Health::describe() const {
  if (empty) return "empty";
  if (uniform) return "uniform";
  if (saturated) return "saturated";
  return "ok";
}

CommMatrix::Health CommMatrix::health() const {
  Health h;
  const std::size_t un = static_cast<std::size_t>(n_);
  const std::size_t pairs = un * (un - 1) / 2;
  std::size_t nonzero = 0;
  std::uint64_t lo = kCounterMax;
  std::uint64_t hi = 0;
  for (std::size_t i = kTileCells; i < tiles_.size(); ++i) {
    const std::uint64_t c = tiles_[i];
    if (c == 0) continue;
    ++nonzero;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  if (nonzero < pairs) lo = 0;  // some pair was never touched
  h.empty = pairs == 0 || hi == 0;
  h.uniform = !h.empty && pairs > 1 && lo == hi;
  h.saturated = hi == kCounterMax;
  return h;
}

void CommMatrix::apply_faults(FaultInjector& injector) {
  const std::size_t un = static_cast<std::size_t>(n_);
  const std::size_t npairs = un * (un - 1) / 2;
  if (npairs == 0) return;
  // Work on the packed upper triangle, then rebuild so the tiles follow
  // wherever the faults moved the nonzeros and max() is recomputed.
  std::vector<std::uint64_t> tri = packed_upper();
  for (std::size_t i = 0; i < npairs; ++i) {
    if (injector.flip_cell()) {
      std::swap(tri[i], tri[injector.draw_index(npairs)]);
    }
    if (injector.zero_cell()) tri[i] = 0;
  }
  CommMatrix rebuilt(n_);
  std::size_t i = 0;
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b, ++i) rebuilt.add(a, b, tri[i]);
  }
  *this = std::move(rebuilt);
}

std::vector<std::pair<ThreadId, ThreadId>> CommMatrix::pairs_by_weight()
    const {
  std::vector<std::pair<ThreadId, ThreadId>> pairs;
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b) pairs.emplace_back(a, b);
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [this](const auto& p, const auto& q) {
                     return at(p.first, p.second) > at(q.first, q.second);
                   });
  return pairs;
}

std::string CommMatrix::heatmap() const {
  static constexpr const char kShades[] = " .:-=+*#%@";
  static constexpr int kLevels = static_cast<int>(sizeof(kShades)) - 2;
  const std::uint64_t m = max();
  std::ostringstream out;
  out << "    ";
  for (ThreadId b = 0; b < n_; ++b) out << (b % 10) << ' ';
  out << '\n';
  for (ThreadId a = 0; a < n_; ++a) {
    out << (a < 10 ? " " : "") << a << "  ";
    for (ThreadId b = 0; b < n_; ++b) {
      char glyph = ' ';
      if (a != b && m > 0) {
        const double frac =
            static_cast<double>(at(a, b)) / static_cast<double>(m);
        const int level =
            std::min(kLevels, static_cast<int>(std::ceil(frac * kLevels)));
        glyph = kShades[level];
      }
      out << glyph << ' ';
    }
    out << '\n';
  }
  return out.str();
}

double CommMatrix::cosine_similarity(const CommMatrix& a,
                                     const CommMatrix& b) {
  if (a.n_ != b.n_) {
    throw std::invalid_argument("cosine_similarity: size mismatch");
  }
  // Each sum runs over its nonzero terms in ascending (row, column) order:
  // a skipped zero term adds +0.0, so the result is the dense
  // upper-triangle sum bit for bit.
  double dot = 0.0, na = 0.0, nb = 0.0;
  a.for_each_nonzero([&](ThreadId r, ThreadId c, std::uint64_t count) {
    const double x = static_cast<double>(count);
    dot += x * static_cast<double>(b.at(r, c));
    na += x * x;
  });
  b.for_each_nonzero([&](ThreadId, ThreadId, std::uint64_t count) {
    const double y = static_cast<double>(count);
    nb += y * y;
  });
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

namespace {
// Average ranks, with ties sharing their mean rank.
std::vector<double> ranks_of(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return values[i] < values[j];
  });
  std::vector<double> ranks(values.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() &&
           values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    const double mean_rank = (static_cast<double>(i) +
                              static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n == 0) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}
}  // namespace

double CommMatrix::rank_correlation(const CommMatrix& a,
                                    const CommMatrix& b) {
  if (a.n_ != b.n_) {
    throw std::invalid_argument("rank_correlation: size mismatch");
  }
  // Every pair ranks, zeros included (they tie), so this one stays dense.
  const auto as_doubles = [](const std::vector<std::uint64_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  return pearson(ranks_of(as_doubles(a.packed_upper())),
                 ranks_of(as_doubles(b.packed_upper())));
}

}  // namespace tlbmap
