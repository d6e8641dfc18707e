// Per-core Translation Lookaside Buffer model.
//
// This is the structure the paper's mechanism inspects: a small
// set-associative cache of the most recently translated virtual pages.
// Detection never needs the physical translation, only page-number matches
// across cores, so entries store virtual page numbers. The set-restricted
// search APIs mirror the paper's complexity argument: with a set-associative
// TLB, a detector compares only the ways of one set (Theta(associativity))
// instead of the whole TLB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/fast_mod.hpp"
#include "sim/scan.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// Set-associative TLB with true-LRU replacement.
///
/// Storage is struct-of-arrays, like Cache: each way of each set is one
/// tag (the page number, kInvalidTag when the way is empty, and the only
/// copy of the page) and one LRU stamp, in two parallel arrays. A lookup is
/// one scan_tags() over a set's dense tags, and the HM detector's sweep
/// reads the tag array directly.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Translation attempt: refreshes LRU on hit. Returns true on hit.
  bool lookup(PageNum page);

  /// Loads a page after a miss, evicting the set's LRU entry if needed.
  void insert(PageNum page);

  /// True if the page is cached; does not disturb LRU order. This is the
  /// probe a detector runs against *other* cores' TLBs (or their in-memory
  /// mirrors), so it must be side-effect free.
  bool contains(PageNum page) const;

  /// Drops one translation (page-table update shootdown).
  bool invalidate(PageNum page);

  /// Drops everything (context switch on architectures without ASIDs).
  void flush();

  std::size_t set_index(PageNum page) const { return set_of_(page); }
  std::size_t num_sets() const { return set_of_.divisor(); }
  std::size_t ways() const { return ways_; }
  std::size_t capacity() const { return num_sets() * ways_; }
  const TlbConfig& config() const { return config_; }

  /// The tags of one set / of the whole TLB: page numbers with kInvalidTag
  /// in empty ways, set-major, dense. The HM detector walks sets of two
  /// TLBs in lockstep (the paper's sweep) or the whole array at once.
  std::span<const std::uint64_t> set_tags(std::size_t set) const {
    return {tags_.data() + set * ways_, ways_};
  }
  std::span<const std::uint64_t> tags() const {
    return {tags_.data(), tags_.size()};
  }

  /// Number of valid entries (test/debug aid; O(capacity)).
  std::size_t valid_entries() const;

 private:
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Flat index of `page`'s way, or kNoWay.
  std::size_t find_way(PageNum page) const;

  TlbConfig config_;
  std::size_t ways_ = 0;
  FastMod set_of_;
  std::uint64_t clock_ = 0;
  // num_sets() * ways_ entries each, set-major.
  std::vector<std::uint64_t> tags_;    ///< page number, the only copy
  std::vector<std::uint64_t> stamps_;  ///< LRU stamp, larger == more recent
};

}  // namespace tlbmap
