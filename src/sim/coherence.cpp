#include "sim/coherence.hpp"

#include <algorithm>
#include <cstdio>

namespace tlbmap {

CoherenceDomain::CoherenceDomain(const MachineConfig& config,
                                 const Topology& topology,
                                 Interconnect& interconnect)
    : l2_latency_(config.l2.latency),
      interconnect_(&interconnect),
      directory_enabled_(!config.coherence_broadcast) {
  l2s_.reserve(static_cast<std::size_t>(topology.num_l2()));
  for (int i = 0; i < topology.num_l2(); ++i) {
    l2s_.emplace_back(config.l2);
  }
  if (directory_enabled_) {
    same_socket_mask_.assign(l2s_.size(), HolderSet(topology.num_l2()));
    for (int a = 0; a < topology.num_l2(); ++a) {
      for (int b = 0; b < topology.num_l2(); ++b) {
        if (topology.socket_of_l2(a) == topology.socket_of_l2(b)) {
          same_socket_mask_[static_cast<std::size_t>(a)].set(b);
        }
      }
    }
    // Worst case one entry per distinct resident line across all L2s.
    directory_.reserve(l2s_.size() * l2s_.front().num_sets() *
                       l2s_.front().ways());
    holder_scratch_.reserve(l2s_.size());
  } else if (topology.num_l2() > 64) {
    // Explicit broadcast mode at a scale where the reference walk is a real
    // engine hazard (Theta(num_l2) cache-set walks per miss). The simulated
    // outcome is still exact; only wall-clock suffers. Machine::run also
    // publishes this as the coherence.directory_disabled gauge.
    std::fprintf(stderr,
                 "tlbmap: warning: coherence directory disabled "
                 "(coherence_broadcast) on %d L2 domains; probe resolution "
                 "is Theta(num_l2) per miss\n",
                 topology.num_l2());
  }
}

void CoherenceDomain::drop(L2Id holder, LineAddr line) {
  if (on_line_drop_) on_line_drop_(holder, line);
}

const std::vector<L2Id>& CoherenceDomain::snapshot_remote_holders(
    L2Id me, LineAddr line) {
  holder_scratch_.clear();
  const auto it = directory_.find(line);
  if (it != directory_.end()) {
    it->second.for_each_excluding(me, [&](int b) {
      holder_scratch_.push_back(checked_l2id(static_cast<std::size_t>(b),
                                             l2s_.size()));
    });
  }
  return holder_scratch_;
}

void CoherenceDomain::directory_clear(L2Id holder, LineAddr line) {
  const auto it = directory_.find(line);
  if (it == directory_.end()) return;
  it->second.reset(holder);
  if (it->second.none()) directory_.erase(it);
}

L2Id CoherenceDomain::probe_broadcast(L2Id me, LineAddr line,
                                      MachineStats& stats) {
  L2Id best = -1;
  for (int other = 0; other < num_l2(); ++other) {
    if (other == me) continue;
    interconnect_->record_probe(me, other, stats);
    if (l2s_[static_cast<std::size_t>(other)].peek(line) == nullptr) continue;
    if (best == -1 || (!interconnect_->same_socket(me, best) &&
                       interconnect_->same_socket(me, other))) {
      best = other;
    }
  }
  return best;
}

L2Id CoherenceDomain::probe(L2Id me, LineAddr line, MachineStats& stats) {
  if (!directory_enabled_) return probe_broadcast(me, line, stats);
  // The address probe still goes out to every peer on the bus — only the
  // simulator-side resolution is a holder-set lookup instead of a set walk.
  interconnect_->record_probe_broadcast(me, stats);
  ++dir_stats_.probes;
  const auto it = directory_.find(line);
  if (it == directory_.end()) return -1;
  // Nearest holder, matching the broadcast scan's tie-break: the
  // lowest-indexed holder on my socket when one exists, else the
  // lowest-indexed holder overall.
  const HolderSet& holders = it->second;
  int pick = holders.first_and_excluding(
      same_socket_mask_[static_cast<std::size_t>(me)], me);
  if (pick == -1) pick = holders.first_excluding(me);
  if (pick == -1) return -1;
  ++dir_stats_.holder_hits;
  return checked_l2id(static_cast<std::size_t>(pick), l2s_.size());
}

void CoherenceDomain::insert_line(L2Id me, LineAddr line, MesiState state,
                                  MachineStats& stats) {
  auto evicted = l2s_[static_cast<std::size_t>(me)].insert(line, state);
  if (directory_enabled_) {
    directory_[line].set(me);
    if (evicted.has_value()) directory_clear(me, evicted->addr);
  }
  if (evicted.has_value()) {
    if (evicted->state == MesiState::kModified) ++stats.writebacks;
    drop(me, evicted->addr);
  }
}

Cycles CoherenceDomain::read(L2Id me, LineAddr line, Cycles memory_latency,
                             MachineStats& stats) {
  ++stats.l2_accesses;
  Cache& mine = l2s_[static_cast<std::size_t>(me)];
  if (mine.find(line) != nullptr) {
    ++stats.l2_hits;
    return l2_latency_;
  }
  ++stats.l2_misses;
  Cycles latency = l2_latency_;
  const L2Id holder = probe(me, line, stats);
  if (holder != -1) {
    // Cache-to-cache transfer: the paper's snoop transaction.
    Cache& theirs = l2s_[static_cast<std::size_t>(holder)];
    CacheLine* held = theirs.peek_mutable(line);
    if (held->state == MesiState::kModified) ++stats.writebacks;
    held->state = MesiState::kShared;
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

Cycles CoherenceDomain::write(L2Id me, LineAddr line, Cycles memory_latency,
                              MachineStats& stats) {
  ++stats.l2_accesses;
  Cache& mine = l2s_[static_cast<std::size_t>(me)];
  if (CacheLine* held = mine.find(line)) {
    ++stats.l2_hits;
    switch (held->state) {
      case MesiState::kModified:
        return 1;  // store-buffered; ownership already held
      case MesiState::kExclusive:
        held->state = MesiState::kModified;
        return 1;
      case MesiState::kShared: {
        // Ownership upgrade: invalidate every remote copy. Messages go out
        // in parallel, so the stall is the slowest acknowledgement.
        Cycles worst = 0;
        if (directory_enabled_) {
          for (const L2Id other : snapshot_remote_holders(me, line)) {
            ++dir_stats_.holder_visits;
            l2s_[static_cast<std::size_t>(other)].invalidate(line);
            ++stats.invalidations;
            worst =
                std::max(worst, interconnect_->invalidate(me, other, stats));
            directory_clear(other, line);
            drop(other, line);
          }
        } else {
          for (int other = 0; other < num_l2(); ++other) {
            if (other == me) continue;
            Cache& theirs = l2s_[static_cast<std::size_t>(other)];
            if (theirs.invalidate(line).has_value()) {
              ++stats.invalidations;
              worst = std::max(worst,
                               interconnect_->invalidate(me, other, stats));
              drop(other, line);
            }
          }
        }
        held->state = MesiState::kModified;
        return 1 + worst;
      }
      case MesiState::kInvalid:
        break;  // unreachable: find() only returns valid lines
    }
  }
  // Write miss: read-for-ownership. probe() names the transfer source, so
  // it is always among the holders invalidated below — the data always
  // arrives cache-to-cache when a holder exists, never from memory.
  ++stats.l2_misses;
  Cycles latency = 1;
  const L2Id source = probe(me, line, stats);
  if (source != -1) {
    // Invalidate every holder; data comes from the nearest one.
    Cycles worst = 0;
    if (directory_enabled_) {
      for (const L2Id other : snapshot_remote_holders(me, line)) {
        ++dir_stats_.holder_visits;
        const auto old =
            l2s_[static_cast<std::size_t>(other)].invalidate(line);
        ++stats.invalidations;
        if (old.has_value() && *old == MesiState::kModified) {
          ++stats.writebacks;
        }
        directory_clear(other, line);
        drop(other, line);
        if (other == source) {
          ++stats.snoop_transactions;
          worst = std::max(worst, interconnect_->transfer(other, me, stats));
        } else {
          worst = std::max(worst, interconnect_->invalidate(me, other, stats));
        }
      }
    } else {
      for (int other = 0; other < num_l2(); ++other) {
        if (other == me) continue;
        Cache& theirs = l2s_[static_cast<std::size_t>(other)];
        const auto old = theirs.invalidate(line);
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
    }
    latency += worst;
  } else {
    ++stats.memory_fetches;
    latency += memory_latency;
  }
  insert_line(me, line, MesiState::kModified, stats);
  return latency;
}

void CoherenceDomain::flush() {
  for (Cache& c : l2s_) c.flush();
  directory_.clear();
}

bool CoherenceDomain::directory_consistent() const {
  if (!directory_enabled_) return true;
  // Every valid cached line must be tracked with its holder bit set...
  for (std::size_t id = 0; id < l2s_.size(); ++id) {
    bool ok = true;
    l2s_[id].for_each_line([&](const CacheLine& cl) {
      const auto it = directory_.find(cl.addr);
      if (it == directory_.end() || !it->second.test(static_cast<int>(id))) {
        ok = false;
      }
    });
    if (!ok) return false;
  }
  // ...and every directory bit must map back to a resident line.
  for (const auto& [line, holders] : directory_) {
    if (holders.none()) return false;  // empty sets are erased eagerly
    bool ok = true;
    holders.for_each([&](int b) {
      const auto id = static_cast<std::size_t>(b);
      if (id >= l2s_.size() || l2s_[id].peek(line) == nullptr) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace tlbmap
