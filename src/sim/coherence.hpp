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
// The simulator resolves the broadcast with a line-occupancy directory: a
// LineAddr -> HolderSet (a small-size-optimised multi-word bitset over L2
// ids) maintained incrementally by every insert/invalidate/eviction, so a
// probe is one hash lookup plus a lowest-set-bit scan over the
// socket-partitioned holder set and the invalidation loops visit only
// actual holders — O(holders) instead of Theta(num_l2) cache-set walks per
// miss. Machines with at most 64 L2s keep the whole set in one inline word
// (the historical representation); larger machines grow per-line heap
// words, so the directory now covers any topology instead of silently
// degrading to the broadcast walk beyond 64 L2s. This changes no simulated
// outcome: probe messages, snoop transactions, invalidations, latencies and
// replacement state are identical bit for bit (the differential test suite
// proves it, up to 256 L2 domains). The literal walked broadcast is kept
// behind MachineConfig::coherence_broadcast for A/B benchmarking only.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/holder_set.hpp"
#include "sim/interconnect.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

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
  /// (NUMA machines pass the home-node-dependent value).
  Cycles read(L2Id l2, LineAddr line, Cycles memory_latency,
              MachineStats& stats);
  Cycles read(L2Id l2, LineAddr line, MachineStats& stats) {
    return read(l2, line, interconnect_->memory_latency(), stats);
  }

  /// Demand write reaching an L2 (write-through from the L1). Store buffers
  /// hide the common-case latency; only coherence work (ownership upgrade,
  /// read-for-ownership) is charged.
  Cycles write(L2Id l2, LineAddr line, Cycles memory_latency,
               MachineStats& stats);
  Cycles write(L2Id l2, LineAddr line, MachineStats& stats) {
    return write(l2, line, interconnect_->memory_latency(), stats);
  }

  void set_line_drop_callback(LineDropFn fn) { on_line_drop_ = std::move(fn); }

  Cache& l2(L2Id id) { return l2s_[static_cast<std::size_t>(id)]; }
  const Cache& l2(L2Id id) const { return l2s_[static_cast<std::size_t>(id)]; }
  int num_l2() const { return static_cast<int>(l2s_.size()); }

  /// Drops every line from every L2 (between experiment repetitions).
  void flush();

  bool directory_enabled() const { return directory_enabled_; }
  const DirectoryStats& directory_stats() const { return dir_stats_; }
  /// Lines currently tracked by the directory (0 in broadcast mode).
  std::size_t directory_lines() const { return directory_.size(); }

  /// Ground-truth check: every valid L2 line has its holder bit set and
  /// every directory bit maps to a resident line. Trivially true in
  /// broadcast mode. Test/debug aid; O(total cache capacity).
  bool directory_consistent() const;

 private:
  /// Index of the holder nearest to `me`, or -1 when no other L2 holds the
  /// line. Also records one probe message per remote L2 (broadcast snoop).
  L2Id probe(L2Id me, LineAddr line, MachineStats& stats);
  L2Id probe_broadcast(L2Id me, LineAddr line, MachineStats& stats);

  /// Inserts into `me`, handling an inclusive eviction (writeback if the
  /// victim was modified; L1 shootdown either way).
  void insert_line(L2Id me, LineAddr line, MesiState state,
                   MachineStats& stats);

  void drop(L2Id holder, LineAddr line);

  /// Snapshots the holders of `line` other than `me`, ascending, into the
  /// reused scratch vector. A snapshot because the upgrade/RFO loops clear
  /// directory bits (possibly erasing the entry) while they walk; ascending
  /// because that is the reference broadcast's visit order, which the
  /// tie-breaks and stats depend on.
  const std::vector<L2Id>& snapshot_remote_holders(L2Id me, LineAddr line);

  void directory_clear(L2Id holder, LineAddr line);

  Cycles l2_latency_;
  Interconnect* interconnect_;
  std::vector<Cache> l2s_;
  LineDropFn on_line_drop_;

  bool directory_enabled_;
  /// Holder set of each socket, indexed by L2 id (same_socket_mask_[me] =
  /// the L2s on me's socket) — the nearest-holder partition.
  std::vector<HolderSet> same_socket_mask_;
  std::unordered_map<LineAddr, HolderSet> directory_;
  std::vector<L2Id> holder_scratch_;  ///< reused by snapshot_remote_holders
  DirectoryStats dir_stats_;
};

}  // namespace tlbmap
