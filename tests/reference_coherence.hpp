// Reference models of the coherence domain and the per-core memory
// hierarchy, for differential tests.
//
// ReferenceBroadcastDomain is the literal snoop broadcast: a miss walks
// every peer L2's cache set, billing one probe message per peer, and a
// write walks every peer again to invalidate its copy. It keeps no
// directory, so CoherenceDomain's line-occupancy directory, bulk probe
// billing and holder-row tie-break are checked against a model that has
// none of them.
//
// ReferenceHierarchy is MemoryHierarchy without its engine shortcuts: no
// per-core translation memo (every access looks the TLB and page table
// up) and a sibling-L1 shootdown after every store, hit or miss. It is
// built from the public component models and a ReferenceBroadcastDomain.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/hierarchy.hpp"
#include "sim/interconnect.hpp"
#include "sim/page_table.hpp"
#include "sim/stats.hpp"
#include "sim/tlb.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class ReferenceBroadcastDomain {
 public:
  using LineDropFn = std::function<void(L2Id, LineAddr)>;

  ReferenceBroadcastDomain(const MachineConfig& config,
                           const Topology& topology,
                           Interconnect& interconnect)
      : l2_latency_(config.l2.latency), interconnect_(&interconnect) {
    for (int i = 0; i < topology.num_l2(); ++i) l2s_.emplace_back(config.l2);
  }

  Cycles read(L2Id me, LineAddr line, Cycles memory_latency,
              MachineStats& stats) {
    ++stats.l2_accesses;
    if (l2(me).find(line) != nullptr) {
      ++stats.l2_hits;
      return l2_latency_;
    }
    ++stats.l2_misses;
    Cycles latency = l2_latency_;
    const L2Id holder = probe(me, line, stats);
    if (holder != -1) {
      MesiState* held = l2(holder).peek_mutable(line);
      if (*held == MesiState::kModified) ++stats.writebacks;
      *held = MesiState::kShared;
      ++stats.snoop_transactions;
      latency += interconnect_->transfer(holder, me, stats);
      insert_line(me, line, MesiState::kShared, stats);
    } else {
      ++stats.memory_fetches;
      latency += memory_latency;
      insert_line(me, line, MesiState::kExclusive, stats);
    }
    return latency;
  }
  Cycles read(L2Id me, LineAddr line, MachineStats& stats) {
    return read(me, line, interconnect_->memory_latency(), stats);
  }

  Cycles write(L2Id me, LineAddr line, Cycles memory_latency,
               MachineStats& stats) {
    ++stats.l2_accesses;
    if (MesiState* held = l2(me).find(line)) {
      ++stats.l2_hits;
      if (*held != MesiState::kShared) {
        *held = MesiState::kModified;
        return 1;
      }
      // Upgrade: invalidate every remote copy; the stall is the slowest
      // acknowledgement.
      Cycles worst = 0;
      for (L2Id other = 0; other < num_l2(); ++other) {
        if (other == me || !l2(other).invalidate(line).has_value()) continue;
        ++stats.invalidations;
        worst = std::max(worst, interconnect_->invalidate(me, other, stats));
        drop(other, line);
      }
      *held = MesiState::kModified;
      return 1 + worst;
    }
    // Read-for-ownership: invalidate every holder; the probed one sends
    // the data.
    ++stats.l2_misses;
    Cycles latency = 1;
    const L2Id source = probe(me, line, stats);
    if (source != -1) {
      Cycles worst = 0;
      for (L2Id other = 0; other < num_l2(); ++other) {
        if (other == me) continue;
        const auto old = l2(other).invalidate(line);
        if (!old.has_value()) continue;
        ++stats.invalidations;
        if (*old == MesiState::kModified) ++stats.writebacks;
        drop(other, line);
        if (other == source) {
          ++stats.snoop_transactions;
          worst = std::max(worst, interconnect_->transfer(other, me, stats));
        } else {
          worst = std::max(worst, interconnect_->invalidate(me, other, stats));
        }
      }
      latency += worst;
    } else {
      ++stats.memory_fetches;
      latency += memory_latency;
    }
    insert_line(me, line, MesiState::kModified, stats);
    return latency;
  }
  Cycles write(L2Id me, LineAddr line, MachineStats& stats) {
    return write(me, line, interconnect_->memory_latency(), stats);
  }

  void set_line_drop_callback(LineDropFn fn) { on_line_drop_ = std::move(fn); }

  Cache& l2(L2Id id) { return l2s_[static_cast<std::size_t>(id)]; }
  const Cache& l2(L2Id id) const { return l2s_[static_cast<std::size_t>(id)]; }
  int num_l2() const { return static_cast<int>(l2s_.size()); }

  void flush() {
    for (Cache& c : l2s_) c.flush();
  }

 private:
  /// Walks every peer, billing one probe message each. The nearest holder
  /// is the lowest-indexed holder on my socket, else the lowest-indexed
  /// holder overall; -1 when no peer holds the line.
  L2Id probe(L2Id me, LineAddr line, MachineStats& stats) {
    L2Id best = -1;
    for (L2Id other = 0; other < num_l2(); ++other) {
      if (other == me) continue;
      interconnect_->record_probe(me, other, stats);
      if (l2(other).peek(line) == nullptr) continue;
      if (best == -1 || (!interconnect_->same_socket(me, best) &&
                         interconnect_->same_socket(me, other))) {
        best = other;
      }
    }
    return best;
  }

  void insert_line(L2Id me, LineAddr line, MesiState state,
                   MachineStats& stats) {
    const auto evicted = l2(me).insert(line, state);
    if (!evicted.has_value()) return;
    if (evicted->state == MesiState::kModified) ++stats.writebacks;
    drop(me, evicted->addr);
  }

  void drop(L2Id holder, LineAddr line) {
    if (on_line_drop_) on_line_drop_(holder, line);
  }

  Cycles l2_latency_;
  Interconnect* interconnect_;
  std::vector<Cache> l2s_;
  LineDropFn on_line_drop_;
};

class ReferenceHierarchy {
 public:
  using AccessInfo = MemoryHierarchy::AccessInfo;

  explicit ReferenceHierarchy(const MachineConfig& config)
      : config_(validated(config)),
        topology_(config_),
        interconnect_(topology_, config_.interconnect),
        page_table_(config_.page_shift()),
        coherence_(config_, topology_, interconnect_),
        line_shift_(std::countr_zero(config_.l1.line_size)) {
    cores_of_l2_.resize(static_cast<std::size_t>(topology_.num_l2()));
    for (CoreId c = 0; c < topology_.num_cores(); ++c) {
      tlbs_.emplace_back(config_.tlb);
      l1s_.emplace_back(config_.l1);
      cores_of_l2_[static_cast<std::size_t>(topology_.l2_of(c))].push_back(c);
    }
    // Inclusive L1s: an L2 losing a line shoots it down above.
    coherence_.set_line_drop_callback([this](L2Id l2, LineAddr line) {
      for (const CoreId core : cores_of(l2)) l1(core).invalidate(line);
    });
  }
  ReferenceHierarchy(const ReferenceHierarchy&) = delete;
  ReferenceHierarchy& operator=(const ReferenceHierarchy&) = delete;

  AccessInfo access(CoreId core, VirtAddr addr, AccessType type,
                    MachineStats& stats) {
    AccessInfo info;
    ++stats.accesses;
    ++(type == AccessType::kRead ? stats.reads : stats.writes);

    info.page = page_table_.page_of(addr);
    Tlb& tlb = tlbs_[static_cast<std::size_t>(core)];
    if (tlb.lookup(info.page)) {
      ++stats.tlb_hits;
    } else {
      ++stats.tlb_misses;
      info.tlb_miss = true;
      tlb.insert(info.page);
      info.latency += config_.tlb.miss_penalty;
    }
    const int home =
        config_.numa_policy == NumaPolicy::kInterleave
            ? static_cast<int>(info.page %
                               static_cast<PageNum>(config_.num_sockets))
            : topology_.socket_of(core);
    const PhysAddr phys =
        (page_table_.frame_of(info.page, home) << config_.page_shift()) |
        page_table_.page_offset(addr);
    const bool remote_home =
        config_.numa &&
        page_table_.home_of(info.page) != topology_.socket_of(core);
    const Cycles memory_latency =
        config_.interconnect.memory_latency +
        (remote_home ? config_.interconnect.memory_remote_extra : 0);
    const LineAddr line = phys >> line_shift_;
    const L2Id l2 = topology_.l2_of(core);

    const bool l1_hit = l1(core).find(line) != nullptr;
    ++(l1_hit ? stats.l1_hits : stats.l1_misses);
    if (type == AccessType::kRead && l1_hit) {
      info.latency += config_.l1.latency;
      return info;
    }
    const std::uint64_t fetches_before = stats.memory_fetches;
    if (type == AccessType::kRead) {
      info.latency +=
          config_.l1.latency + coherence_.read(l2, line, memory_latency, stats);
      l1(core).insert(line, MesiState::kShared);
    } else {
      info.latency += coherence_.write(l2, line, memory_latency, stats);
      // Siblings behind the same L2 are not on the snoop bus.
      for (const CoreId sibling : cores_of(l2)) {
        if (sibling != core) l1(sibling).invalidate(line);
      }
    }
    if (stats.memory_fetches > fetches_before) {
      ++(remote_home ? stats.memory_fetches_remote
                     : stats.memory_fetches_local);
    }
    return info;
  }

  void flush_caches() {
    for (Tlb& t : tlbs_) t.flush();
    for (Cache& c : l1s_) c.flush();
    coherence_.flush();
  }

 private:
  Cache& l1(CoreId core) { return l1s_[static_cast<std::size_t>(core)]; }

  const std::vector<CoreId>& cores_of(L2Id l2) const {
    return cores_of_l2_[static_cast<std::size_t>(l2)];
  }

  MachineConfig config_;
  Topology topology_;
  Interconnect interconnect_;
  PageTable page_table_;
  ReferenceBroadcastDomain coherence_;
  int line_shift_;
  std::vector<Tlb> tlbs_;
  std::vector<Cache> l1s_;
  std::vector<std::vector<CoreId>> cores_of_l2_;
};

}  // namespace tlbmap
