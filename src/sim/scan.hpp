// Portable SIMD-style scan kernels shared by the TLB and cache lookups,
// their inserts and the HM-detector sweep.
//
// The hot question for an associative container is "which way of this set
// holds tag X?". Asked of array-of-structs storage it is a strided, branchy
// walk: a valid-bit test and an early-exit compare per way. scan_tags()
// answers it over one dense uint64 tag array instead (kInvalidTag marks
// invalid ways) with a branch-free XOR/compare over four 64-bit lanes per
// step — exactly the shape compilers map onto 256-bit vector compares, with
// no per-lane branches to mispredict. Cache and Tlb both keep their tags
// only in such an array (struct-of-arrays storage), so this is their only
// lookup. It returns the lowest matching way, and a tag occurs at most once
// per set, so it finds exactly the way a scalar walk would
// (CacheDifferential and TlbDifferential check both containers against a
// brute-force reference). pick_way() is the insert's victim choice over the
// same tag array plus a parallel LRU stamp array, again without branches.
#pragma once

#include <cstdint>
#include <cstddef>

namespace tlbmap {

/// Tag of an invalid way in the tag arrays. Real tags cannot collide with
/// it: line addresses are physical >> line_shift with frames allocated
/// sequentially from zero, and page numbers are virtual >> page_shift of
/// user-space addresses — both far below 2^64 - 1.
inline constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

/// Index of `needle` in tags[0..n), or -1. Branch-free four-lane blocks:
/// the block test is one OR-reduction of lane compares (vectorizable);
/// lane disambiguation only runs on the rare hit block.
inline int scan_tags(const std::uint64_t* tags, std::size_t n,
                     std::uint64_t needle) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const bool h0 = tags[i] == needle;
    const bool h1 = tags[i + 1] == needle;
    const bool h2 = tags[i + 2] == needle;
    const bool h3 = tags[i + 3] == needle;
    if (h0 | h1 | h2 | h3) {
      if (h0) return static_cast<int>(i);
      if (h1) return static_cast<int>(i + 1);
      if (h2) return static_cast<int>(i + 2);
      return static_cast<int>(i + 3);
    }
  }
  for (; i < n; ++i) {
    if (tags[i] == needle) return static_cast<int>(i);
  }
  return -1;
}

/// Way an insert of `needle` takes in a set of n ways: the way that holds
/// `needle`, else the lowest invalid way, else the valid way with the
/// smallest LRU stamp. One branch-free pass takes the argmin of a per-way
/// key: 0 for the needle itself, 1 + w for invalid way w, and n + 1 + stamp
/// for a valid way. Stamps of valid ways are distinct, so the minimum is
/// unique, and the three bands never overlap.
inline std::size_t pick_way(const std::uint64_t* tags,
                            const std::uint64_t* stamps, std::size_t n,
                            std::uint64_t needle) {
  std::size_t best = 0;
  std::uint64_t best_key = ~std::uint64_t{0};
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t key = tags[w] == needle        ? 0
                              : tags[w] == kInvalidTag ? 1 + w
                                                       : n + 1 + stamps[w];
    const bool less = key < best_key;
    best = less ? w : best;
    best_key = less ? key : best_key;
  }
  return best;
}

}  // namespace tlbmap
