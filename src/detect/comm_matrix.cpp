#include "detect/comm_matrix.hpp"

#include <algorithm>
#include <cmath>
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
  cells_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                0);
}

void CommMatrix::add(ThreadId a, ThreadId b, std::uint64_t amount) {
  if (a == b) return;
  if (a < 0 || b < 0 || a >= n_ || b >= n_) {
    throw std::out_of_range("CommMatrix::add: thread id out of range");
  }
  const std::uint64_t next = sat_add(cells_[index(a, b)], amount);
  cells_[index(a, b)] = next;
  cells_[index(b, a)] = next;
  max_ = std::max(max_, next);
}

std::uint64_t CommMatrix::at(ThreadId a, ThreadId b) const {
  if (a < 0 || b < 0 || a >= n_ || b >= n_) {
    throw std::out_of_range("CommMatrix::at: thread id out of range");
  }
  return cells_[index(a, b)];
}

std::span<const std::uint64_t> CommMatrix::row(ThreadId a) const {
  if (a < 0 || a >= n_) {
    throw std::out_of_range("CommMatrix::row: thread id out of range");
  }
  return {cells_.data() + index(a, 0), static_cast<std::size_t>(n_)};
}

std::uint64_t CommMatrix::total() const {
  // Saturating like every cell mutator: at N >= 256 threads a busy suite
  // holds n*(n-1)/2 > 32k cells, and a plain sum of hot cells can wrap —
  // inverting "enormous total" into "tiny total" for health checks.
  std::uint64_t sum = 0;
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b) {
      sum = sat_add(sum, cells_[index(a, b)]);
    }
  }
  return sum;
}

double CommMatrix::normalized(ThreadId a, ThreadId b) const {
  if (max_ == 0) return 0.0;
  return static_cast<double>(at(a, b)) / static_cast<double>(max_);
}

std::vector<std::vector<std::uint64_t>> CommMatrix::rows() const {
  std::vector<std::vector<std::uint64_t>> out(
      static_cast<std::size_t>(n_),
      std::vector<std::uint64_t>(static_cast<std::size_t>(n_), 0));
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = 0; b < n_; ++b) {
      out[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          cells_[index(a, b)];
    }
  }
  return out;
}

CommMatrix& CommMatrix::operator+=(const CommMatrix& other) {
  if (other.n_ != n_) {
    throw std::invalid_argument("CommMatrix::operator+=: size mismatch");
  }
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] = sat_add(cells_[i], other.cells_[i]);
    m = std::max(m, cells_[i]);
  }
  max_ = m;
  return *this;
}

void CommMatrix::decay(double factor) {
  // NaN-free invariant: a non-finite or negative factor would poison every
  // cell through the double round-trip; treat it as "forget everything",
  // the conservative ageing for a corrupted parameter.
  if (!std::isfinite(factor) || factor < 0.0) factor = 0.0;
  std::uint64_t m = 0;
  for (std::uint64_t& c : cells_) {
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
  std::uint64_t lo = kCounterMax;
  std::uint64_t hi = 0;
  std::size_t pairs = 0;
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b, ++pairs) {
      const std::uint64_t c = cells_[index(a, b)];
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  h.empty = pairs == 0 || hi == 0;
  h.uniform = !h.empty && pairs > 1 && lo == hi;
  h.saturated = hi == kCounterMax;
  return h;
}

void CommMatrix::apply_faults(FaultInjector& injector) {
  const std::size_t un = static_cast<std::size_t>(n_);
  const std::size_t npairs = un * (un - 1) / 2;
  if (npairs == 0) return;
  // Work on the packed upper triangle, then mirror back so symmetry and
  // the cached max() survive arbitrary corruption.
  std::vector<std::uint64_t> tri;
  tri.reserve(npairs);
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b) tri.push_back(cells_[index(a, b)]);
  }
  for (std::size_t i = 0; i < npairs; ++i) {
    if (injector.flip_cell()) {
      std::swap(tri[i], tri[injector.draw_index(npairs)]);
    }
    if (injector.zero_cell()) tri[i] = 0;
  }
  std::size_t i = 0;
  std::uint64_t m = 0;
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b, ++i) {
      cells_[index(a, b)] = tri[i];
      cells_[index(b, a)] = tri[i];
      m = std::max(m, tri[i]);
    }
  }
  max_ = m;
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

std::vector<double> CommMatrix::upper_triangle() const {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ - 1) /
            2);
  for (ThreadId a = 0; a < n_; ++a) {
    for (ThreadId b = a + 1; b < n_; ++b) {
      v.push_back(static_cast<double>(at(a, b)));
    }
  }
  return v;
}

double CommMatrix::cosine_similarity(const CommMatrix& a,
                                     const CommMatrix& b) {
  if (a.n_ != b.n_) {
    throw std::invalid_argument("cosine_similarity: size mismatch");
  }
  const std::vector<double> va = a.upper_triangle();
  const std::vector<double> vb = b.upper_triangle();
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    dot += va[i] * vb[i];
    na += va[i] * va[i];
    nb += vb[i] * vb[i];
  }
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
  return pearson(ranks_of(a.upper_triangle()), ranks_of(b.upper_triangle()));
}

}  // namespace tlbmap
