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
// an open-addressed LineAddr -> holder-row table (DirectoryTable, one bit
// per L2 id in ceil(num_l2/64) words per row) maintained incrementally by
// every insert/invalidate/eviction. A probe is one table lookup plus a
// lowest-set-bit scan over the socket-partitioned holder row, and the
// invalidation loops visit only actual holders: O(holders) instead of
// Theta(num_l2) cache-set walks per miss. Rows have one width per machine,
// so the directory covers any topology, and the table grows by doubling
// and never shrinks, so an L2 miss allocates nothing. This changes no
// simulated outcome: probe messages, snoop transactions, invalidations,
// latencies and replacement state are identical bit for bit (the
// differential tests prove it against the literal walked broadcast, a
// reference model kept in tests/reference_coherence.hpp, up to 256 L2
// domains).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/interconnect.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// One directory row: bit b (word b / 64) set when L2 b holds the line.
/// Every row of a machine has the same width, ceil(num_l2 / 64) words.
using HolderRow = std::span<const std::uint64_t>;

/// Word index and in-word mask of holder bit `b`. b = -1 (exclude nothing)
/// maps to a word index no row reaches.
inline std::size_t holder_word(int b) {
  return static_cast<std::size_t>(b) / 64;
}
inline std::uint64_t holder_mask(int b) {
  return std::uint64_t{1} << (static_cast<unsigned>(b) % 64);
}

/// Checked narrowing from a holder bit index to an L2Id. Every conversion
/// of a row bit into an L2 id routes through here, so a holder in word 1+
/// (id >= 64) can never silently truncate or alias an id in word 0.
/// `limit` is the machine's L2 count; an out-of-range index means directory
/// corruption, reported loudly instead of as a wrong-holder probe result.
inline L2Id checked_l2id(std::size_t bit, std::size_t limit) {
  if (bit >= limit) {
    throw std::logic_error("checked_l2id: holder bit beyond machine L2s");
  }
  return static_cast<L2Id>(bit);
}

/// Lowest bit set in `row` and in `mask` (rows of one width), other than
/// `exclude`; -1 when there is none. With `mask` = the prober's socket this
/// is the probe's "lowest-indexed holder on my socket" tie-break. Pass
/// exclude = -1 to exclude nothing.
inline int first_holder_in(HolderRow row, HolderRow mask, int exclude) {
  const std::size_t xw = holder_word(exclude);
  const std::uint64_t xbit = holder_mask(exclude);
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::uint64_t v = row[i] & mask[i];
    if (i == xw) v &= ~xbit;
    if (v != 0) return static_cast<int>(i * 64) + std::countr_zero(v);
  }
  return -1;
}

/// Lowest set bit other than `exclude`, or -1 (the multi-word
/// `countr_zero`: the broadcast scan's lowest-index-first order).
inline int first_holder(HolderRow row, int exclude) {
  const std::size_t xw = holder_word(exclude);
  const std::uint64_t xbit = holder_mask(exclude);
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::uint64_t v = row[i];
    if (i == xw) v &= ~xbit;
    if (v != 0) return static_cast<int>(i * 64) + std::countr_zero(v);
  }
  return -1;
}

/// Calls `fn(bit)` for every set bit other than `exclude`, ascending: the
/// order the reference broadcast walks its peers, which keeps the
/// directory's invalidation loops bit-identical to it.
template <typename Fn>
void for_each_holder(HolderRow row, int exclude, Fn&& fn) {
  const std::size_t xw = holder_word(exclude);
  const std::uint64_t xbit = holder_mask(exclude);
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::uint64_t v = row[i];
    if (i == xw) v &= ~xbit;
    for (; v != 0; v &= v - 1) {
      fn(static_cast<int>(i * 64) + std::countr_zero(v));
    }
  }
}

/// The directory's storage: an open-addressed LineAddr -> holder-row table.
/// Keys live in their own array, so a probe touches only keys; rows of
/// `words_per_row` words sit at the same slot index in a parallel array.
/// Linear probing starts at the high bits of a multiplicative hash; erase
/// shifts the rest of the cluster back, so no tombstones build up. The
/// table doubles at half load and never shrinks (clear() keeps the
/// capacity), so a run in steady state allocates nothing. Empty slots
/// always hold all-zero rows: a freshly inserted row starts empty.
class DirectoryTable {
 public:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  /// `min_capacity` is rounded up to a power of two (at least 2).
  explicit DirectoryTable(std::size_t words_per_row,
                          std::size_t min_capacity = 1024);

  /// Slot holding `line`, or kNotFound.
  std::size_t find(LineAddr line) const {
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
      if (keys_[i] == line) return i;
      if (keys_[i] == kEmpty) return kNotFound;
    }
  }
  /// Slot holding `line`, inserting it with an all-zero row if absent.
  /// May grow the table, which moves every slot. `line` must not be
  /// ~0 (the empty-slot key; line addresses never reach it).
  std::size_t find_or_insert(LineAddr line);
  /// Removes the entry at an occupied slot. Moves later entries of the
  /// same cluster, so slot indices taken before the call are stale.
  void erase(std::size_t slot);
  /// Removes every entry; keeps the capacity.
  void clear();

  std::span<std::uint64_t> row(std::size_t slot) {
    return {rows_.data() + slot * words_, words_};
  }
  HolderRow row(std::size_t slot) const {
    return {rows_.data() + slot * words_, words_};
  }
  bool occupied(std::size_t slot) const { return keys_[slot] != kEmpty; }
  LineAddr key(std::size_t slot) const { return keys_[slot]; }

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return keys_.size(); }
  /// First slot probed for `line`.
  std::size_t home(LineAddr line) const {
    return static_cast<std::size_t>((line * kHashMul) >> shift_);
  }

  /// Structural check: the live count equals the occupied slots, the load
  /// stays at or under half, every key is reachable from its home slot and
  /// every empty slot's row is zero. Test/debug aid; O(capacity).
  bool consistent() const;

 private:
  static constexpr LineAddr kEmpty = ~LineAddr{0};
  static constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;

  void allocate(std::size_t capacity);
  void grow();

  std::size_t words_;
  std::size_t mask_ = 0;  ///< capacity - 1
  int shift_ = 0;         ///< 64 - log2(capacity)
  std::size_t live_ = 0;
  std::vector<LineAddr> keys_;       ///< kEmpty marks a free slot
  std::vector<std::uint64_t> rows_;  ///< capacity * words_, slot-major
};

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
  };

  CoherenceDomain(const MachineConfig& config, const Topology& topology,
                  Interconnect& interconnect);

  /// Demand read reaching an L2 (after an L1 miss).
  /// Returns the extra latency beyond the core's L1 access.
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
  /// read-for-ownership) is charged.
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
  std::size_t directory_lines() const { return directory_.size(); }

  /// Ground-truth check: the table is structurally sound
  /// (DirectoryTable::consistent), every valid L2 line has its holder bit
  /// set and every directory bit maps to a resident line. Test/debug aid;
  /// O(total cache capacity).
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
  /// not touch the directory; it walks the row in place.
  template <typename Fn>
  void take_remote_holders(L2Id me, LineAddr line, Fn&& fn);

  void directory_set(L2Id holder, LineAddr line);
  void directory_clear(L2Id holder, LineAddr line);

  HolderRow socket_row(L2Id me) const {
    return {socket_rows_.data() + static_cast<std::size_t>(me) * holder_words_,
            holder_words_};
  }

  Cycles l2_latency_;
  Interconnect* interconnect_;
  std::vector<Cache> l2s_;
  LineDropFn on_line_drop_;

  std::size_t holder_words_;  ///< ceil(num_l2 / 64), the width of every row
  /// One row per L2 id: row me = the L2s on me's socket, the
  /// nearest-holder partition.
  std::vector<std::uint64_t> socket_rows_;
  DirectoryTable directory_;
  DirectoryStats dir_stats_;
};

}  // namespace tlbmap
