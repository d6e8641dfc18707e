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

/// One TLB entry (one way of one set).
struct TlbEntry {
  PageNum page = 0;
  bool valid = false;
  std::uint64_t lru_stamp = 0;
};

/// Set-associative TLB with true-LRU replacement.
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

  /// All ways of one set, valid or not (the HM detector walks sets of two
  /// TLBs in lockstep; the SM detector probes a single set).
  std::span<const TlbEntry> set_entries(std::size_t set) const;

  /// The SoA tag mirror of one set / of the whole TLB: page numbers with
  /// kInvalidTag in invalid ways, set-major, dense. The HM detector's sweep
  /// reads these spans instead of striding through TlbEntry structs; the
  /// values always agree with set_entries() exactly.
  std::span<const std::uint64_t> set_tags(std::size_t set) const {
    return {tags_.data() + set * ways_, ways_};
  }
  std::span<const std::uint64_t> tags() const {
    return {tags_.data(), tags_.size()};
  }

  /// Number of valid entries (test/debug aid).
  std::size_t valid_entries() const;

  /// Visits every valid entry. Templated so the visitor inlines instead of
  /// going through a std::function thunk.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const TlbEntry& e : entries_) {
      if (e.valid) fn(e);
    }
  }

 private:
  TlbEntry* find(PageNum page);

  TlbConfig config_;
  std::size_t ways_ = 0;
  FastMod set_of_;
  std::uint64_t clock_ = 0;
  std::vector<TlbEntry> entries_;  ///< num_sets() * ways_, set-major
  /// SoA mirror of entries_[i].page (kInvalidTag when invalid), maintained
  /// by insert/invalidate/flush; backs the hot lookup scan and the HM
  /// detector's sweep (scan.hpp).
  std::vector<std::uint64_t> tags_;
};

}  // namespace tlbmap
