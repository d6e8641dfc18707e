// MESI coherence across the shared L2 caches, over a broadcast snoop bus.
//
// Each L2 cache (one per pair of cores on Harpertown) is a peer on the bus.
// A miss broadcasts an address probe to every other L2; data is sourced
// cache-to-cache from the nearest holder when one exists (a *snoop
// transaction* in the paper's terminology), otherwise from memory. Writes
// acquire ownership MESI-style, invalidating every remote copy (the paper's
// *invalidations* counter). The interconnect prices each message by whether
// it crosses the socket boundary — this is precisely the cost structure a
// good thread mapping exploits.
//
// The simulator resolves the broadcast with a line-occupancy directory:
// one dense array of holder cells indexed by line address, maintained
// incrementally by every insert/invalidate/eviction. The page table hands
// out frames in order from 0 on first touch, so every line a machine makes
// lies in [0, touched pages x lines per page) and the array needs no hash:
// a lookup is one bounds check and one load, eight neighbouring lines share
// a host cache line, and the array costs 8 bytes per touched line (touched
// bytes / 8). It grows to bit_ceil(line + 1) cells on the first line past
// its end and never shrinks. A cell names up to four holder L2 ids inline,
// ascending, in 16-bit lanes; a line with a fifth holder moves to a full
// holder row (one bit per L2) taken from a free-listed pool (HolderPool)
// and comes back inline when it drops to four. A probe is one cell load
// plus one ascending walk over the holders, and the invalidation loops
// visit only actual holders: O(holders) instead of Theta(num_l2) cache-set
// walks per miss. The pool reuses its rows, so a warm L2 miss allocates
// nothing. This changes no simulated outcome: probe messages, snoop
// transactions, invalidations, latencies and replacement state are
// identical bit for bit (the differential tests prove it against the
// literal walked broadcast, a reference model kept in
// tests/reference_coherence.hpp, up to 256 L2 domains).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/interconnect.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// The holders of one line. Inline form: up to four L2 ids in ascending
/// order, lane k in bits [16k, 16k + 16), free lanes kFreeLane (so they
/// sort last). Pooled form, for five holders or more: lane 0 is
/// kPooledLane, lane 1 the holder count and lanes 2-3 the index of a
/// HolderPool row. A line with no holders has kEmptyCell (every lane free).
using HolderCell = std::uint64_t;

/// Checked narrowing from a holder bit index to an L2Id. Every conversion
/// of a pooled row's bit into an L2 id routes through here; `limit` is the
/// machine's L2 count, and an out-of-range index means directory
/// corruption, reported loudly instead of as a wrong-holder probe result.
inline L2Id checked_l2id(std::size_t bit, std::size_t limit) {
  if (bit >= limit) {
    throw std::logic_error("checked_l2id: holder bit beyond machine L2s");
  }
  return static_cast<L2Id>(bit);
}

/// Reads and edits HolderCells, and owns the full holder rows of the
/// pooled ones: ceil(num_l2 / 64) words each, taken from a free list, so
/// once warm no conversion allocates.
class HolderPool {
 public:
  static constexpr unsigned kLanes = 4;
  static constexpr std::uint64_t kFreeLane = 0xFFFF;
  static constexpr std::uint64_t kPooledLane = 0xFFFE;
  static constexpr HolderCell kEmptyCell = ~HolderCell{0};
  static_assert(MachineConfig::kMaxL2s == kPooledLane,
                "every L2 id must fit a lane below the reserved values");

  explicit HolderPool(int num_l2);

  /// Adds `id` to `cell`; no-op when it already holds. Returns true when
  /// this moved the cell to a pooled row (its fifth holder).
  bool add(HolderCell& cell, L2Id id);
  /// Removes `id` from `cell`; no-op when it does not hold. A pooled cell
  /// left with four holders goes back inline and frees its row. Returns
  /// true when the cell has no holder left.
  bool remove(HolderCell& cell, L2Id id);
  /// Makes `id` the cell's only holder, freeing a pooled row.
  void reset(HolderCell& cell, L2Id id);
  /// Calls `fn(id)` for the cell's holders in ascending order (the order
  /// the reference broadcast walks its peers) until `fn` returns true.
  template <typename Fn>
  void visit(HolderCell cell, Fn&& fn) const;
  /// Frees every row (the directory was cleared); keeps the storage.
  void clear();

  static bool pooled(HolderCell cell) { return lane(cell, 0) == kPooledLane; }
  /// Structural check of one cell: inline lanes strictly ascending with
  /// free lanes only at the end and at least one holder; a pooled cell
  /// names a row in use, counts its bits exactly and has more than four.
  bool well_formed(HolderCell cell) const;
  /// Row index of a pooled cell.
  static std::uint32_t row_index(HolderCell cell) {
    return static_cast<std::uint32_t>(cell >> 32);
  }
  /// Rows ever allocated, and those held by pooled cells now.
  std::size_t rows() const { return words_.size() / words_per_row_; }
  std::size_t rows_in_use() const { return rows() - free_.size(); }

 private:
  static std::uint64_t lane(HolderCell cell, unsigned k) {
    return (cell >> (16 * k)) & 0xFFFF;
  }
  static std::uint64_t holder_count(HolderCell cell) { return lane(cell, 1); }
  std::uint64_t* row(HolderCell cell) {
    return words_.data() + std::size_t{row_index(cell)} * words_per_row_;
  }
  const std::uint64_t* row(HolderCell cell) const {
    return words_.data() + std::size_t{row_index(cell)} * words_per_row_;
  }
  /// Moves a full inline cell plus `id` to a zeroed row.
  void convert(HolderCell& cell, L2Id id);
  void release(HolderCell cell) { free_.push_back(row_index(cell)); }

  std::size_t num_l2_;
  std::size_t words_per_row_;             ///< ceil(num_l2 / 64)
  std::vector<std::uint64_t> words_;      ///< rows() rows, row-major
  std::vector<std::uint32_t> free_;       ///< indices of free rows
};

template <typename Fn>
void HolderPool::visit(HolderCell cell, Fn&& fn) const {
  if (!pooled(cell)) {
    for (unsigned k = 0; k < kLanes && lane(cell, k) != kFreeLane; ++k) {
      if (fn(static_cast<L2Id>(lane(cell, k)))) return;
    }
    return;
  }
  const std::uint64_t* bits = row(cell);
  for (std::size_t i = 0; i < words_per_row_; ++i) {
    for (std::uint64_t v = bits[i]; v != 0; v &= v - 1) {
      const auto b = i * 64 + static_cast<std::size_t>(std::countr_zero(v));
      if (fn(checked_l2id(b, num_l2_))) return;
    }
  }
}

class CoherenceDomain {
 public:
  /// Called whenever an L2 loses a line (remote invalidation or eviction),
  /// so the private L1s above it can be kept inclusive.
  using LineDropFn = std::function<void(L2Id, LineAddr)>;

  /// Bookkeeping of the directory fast path (not part of MachineStats: the
  /// directory is an engine acceleration, not a simulated event). Published
  /// by Machine::run as coherence.directory_* metrics.
  struct DirectoryStats {
    std::uint64_t probes = 0;         ///< directory lookups on L2 misses
    std::uint64_t holder_hits = 0;    ///< probes that found a remote holder
    std::uint64_t holder_visits = 0;  ///< L2s visited by upgrade/RFO loops
    std::uint64_t pooled_rows = 0;    ///< cells moved to a pooled row
  };

  /// Lines at or above this are refused with std::length_error: the
  /// dense directory could not index them. A Machine never makes one (that
  /// takes 256 GiB of touched memory).
  static constexpr LineAddr kMaxLines = LineAddr{1} << 32;

  CoherenceDomain(const MachineConfig& config, const Topology& topology,
                  Interconnect& interconnect);

  /// Demand read reaching an L2 (after an L1 miss).
  /// Returns the extra latency beyond the core's L1 access. Throws
  /// std::length_error, changing nothing, when `line` >= kMaxLines.
  /// `memory_latency` is the DRAM cost if the line must come from memory
  /// (NUMA machines pass the home-node-dependent value). `l2_way` is the
  /// caller's way hint into `l2` (Cache::find); it is left at the line's
  /// way.
  Cycles read(L2Id l2, LineAddr line, Cycles memory_latency,
              std::size_t& l2_way, MachineStats& stats);
  Cycles read(L2Id l2, LineAddr line, MachineStats& stats) {
    std::size_t l2_way = Cache::kNoWay;
    return read(l2, line, interconnect_->memory_latency(), l2_way, stats);
  }

  /// Demand write reaching an L2 (write-through from the L1). Store buffers
  /// hide the common-case latency; only coherence work (ownership upgrade,
  /// read-for-ownership) is charged. Refuses `line` >= kMaxLines as read()
  /// does.
  Cycles write(L2Id l2, LineAddr line, Cycles memory_latency,
               std::size_t& l2_way, MachineStats& stats);
  Cycles write(L2Id l2, LineAddr line, MachineStats& stats) {
    std::size_t l2_way = Cache::kNoWay;
    return write(l2, line, interconnect_->memory_latency(), l2_way, stats);
  }

  void set_line_drop_callback(LineDropFn fn) { on_line_drop_ = std::move(fn); }

  Cache& l2(L2Id id) { return l2s_[static_cast<std::size_t>(id)]; }
  const Cache& l2(L2Id id) const { return l2s_[static_cast<std::size_t>(id)]; }
  int num_l2() const { return static_cast<int>(l2s_.size()); }

  /// Drops every line from every L2 (between experiment repetitions).
  void flush();

  const DirectoryStats& directory_stats() const { return dir_stats_; }
  /// Lines currently tracked by the directory.
  std::size_t directory_lines() const { return directory_lines_; }
  /// Cells of the directory array (8 bytes each), tracked or not.
  std::size_t directory_cells() const { return directory_.size(); }

  /// Rows the holder pool has allocated (it never returns them).
  std::size_t directory_pool_rows() const { return pool_.rows(); }

  /// Ground-truth check: the live-line count equals the non-empty cells,
  /// every cell is well formed and pooled cells own distinct rows (all the
  /// rows in use), every valid L2 line names its holder and every named
  /// holder has the line resident.
  /// Test/debug aid; O(total cache capacity + directory cells).
  bool directory_consistent() const;

 private:
  /// Index of the holder nearest to `me`, or -1 when no other L2 holds the
  /// line. Also records one probe message per remote L2 (broadcast snoop).
  L2Id probe(L2Id me, LineAddr line, MachineStats& stats);

  /// Inserts into `me` through way hint `l2_way`, handling an inclusive
  /// eviction (writeback if the victim was modified; L1 shootdown either
  /// way).
  void insert_line(L2Id me, LineAddr line, MesiState state,
                   std::size_t& l2_way, MachineStats& stats);

  void drop(L2Id holder, LineAddr line);

  /// Calls `fn(holder)` for every holder of `line` other than `me`,
  /// ascending (the reference broadcast's visit order, which the tie-breaks
  /// and stats depend on), then leaves `me` as the line's only holder: the
  /// upgrade keeps its copy and the RFO inserts one right after. `fn` must
  /// not touch the directory; it walks the cell in place.
  template <typename Fn>
  void take_remote_holders(L2Id me, LineAddr line, Fn&& fn);

  /// `line`'s cell; kEmptyCell past the array's end.
  HolderCell directory_cell(LineAddr line) const {
    return line < directory_.size() ? directory_[line]
                                    : HolderPool::kEmptyCell;
  }
  void directory_set(L2Id holder, LineAddr line);
  void directory_clear(L2Id holder, LineAddr line);

  Cycles l2_latency_;
  Interconnect* interconnect_;
  std::vector<Cache> l2s_;
  LineDropFn on_line_drop_;

  /// L2s per socket: L2s me - me % l2s_per_socket_ onward share me's
  /// socket, the nearest-holder partition.
  unsigned l2s_per_socket_;
  HolderPool pool_;
  std::vector<HolderCell> directory_;  ///< by line; kEmptyCell: no holder
  std::size_t directory_lines_ = 0;    ///< cells other than kEmptyCell
  DirectoryStats dir_stats_;
};

}  // namespace tlbmap
