// A communication matrix's nonzeros stored as compressed upper rows (CSR):
// what CommMatrix::upper_rows() returns and what the metrics layer keeps as
// a matrix snapshot.
//
// Header-only and dependency-free so the observability layer, which sits
// below the detectors, can hold snapshots without linking them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tlbmap {

/// Row a lists the nonzero cells (a, b) with b > a, in ascending b. The
/// matrix is symmetric with a zero diagonal, so this is all of it.
struct UpperRows {
  int n = 0;                           ///< matrix side (thread count)
  std::vector<std::size_t> begin{0};   ///< row a is [begin[a], begin[a + 1])
  std::vector<int> col;                ///< b of each nonzero cell
  std::vector<std::uint64_t> count;    ///< its count, never 0

  std::size_t row_begin(int a) const {
    return begin[static_cast<std::size_t>(a)];
  }
  std::size_t row_end(int a) const {
    return begin[static_cast<std::size_t>(a) + 1];
  }
  std::size_t nonzeros() const { return col.size(); }
};

}  // namespace tlbmap
