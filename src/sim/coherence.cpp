#include "sim/coherence.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace tlbmap {

DirectoryTable::DirectoryTable(std::size_t words_per_row,
                               std::size_t min_capacity)
    : words_(words_per_row) {
  allocate(std::bit_ceil(std::max<std::size_t>(min_capacity, 2)));
}

void DirectoryTable::allocate(std::size_t capacity) {
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  keys_.assign(capacity, kEmpty);
  rows_.assign(capacity * words_, 0);
}

void DirectoryTable::grow() {
  std::vector<LineAddr> old_keys = std::move(keys_);
  std::vector<std::uint64_t> old_rows = std::move(rows_);
  allocate(old_keys.size() * 2);
  for (std::size_t s = 0; s < old_keys.size(); ++s) {
    if (old_keys[s] == kEmpty) continue;
    std::size_t i = home(old_keys[s]);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = old_keys[s];
    std::copy_n(old_rows.data() + s * words_, words_,
                rows_.data() + i * words_);
  }
}

std::size_t DirectoryTable::find_or_insert(LineAddr line) {
  std::size_t i = home(line);
  for (; keys_[i] != kEmpty; i = (i + 1) & mask_) {
    if (keys_[i] == line) return i;
  }
  if (2 * (live_ + 1) > keys_.size()) {
    grow();
    for (i = home(line); keys_[i] != kEmpty; i = (i + 1) & mask_) {
    }
  }
  keys_[i] = line;
  ++live_;
  return i;
}

void DirectoryTable::erase(std::size_t slot) {
  // Backward-shift deletion: walk the rest of the cluster and pull back
  // every entry whose probe path crosses the hole (its home is not
  // cyclically inside (hole, i]), so every key stays reachable from its
  // home without tombstones.
  std::size_t hole = slot;
  for (std::size_t i = (slot + 1) & mask_; keys_[i] != kEmpty;
       i = (i + 1) & mask_) {
    if (((i - home(keys_[i])) & mask_) >= ((i - hole) & mask_)) {
      keys_[hole] = keys_[i];
      std::copy_n(rows_.data() + i * words_, words_,
                  rows_.data() + hole * words_);
      hole = i;
    }
  }
  keys_[hole] = kEmpty;
  std::fill_n(rows_.data() + hole * words_, words_, std::uint64_t{0});
  --live_;
}

void DirectoryTable::clear() {
  if (live_ == 0) return;
  std::fill(keys_.begin(), keys_.end(), kEmpty);
  std::fill(rows_.begin(), rows_.end(), std::uint64_t{0});
  live_ = 0;
}

bool DirectoryTable::consistent() const {
  if (2 * live_ > keys_.size()) return false;
  std::size_t occupied_slots = 0;
  for (std::size_t s = 0; s < keys_.size(); ++s) {
    if (keys_[s] == kEmpty) {
      const HolderRow r = row(s);
      if (std::any_of(r.begin(), r.end(),
                      [](std::uint64_t w) { return w != 0; })) {
        return false;
      }
      continue;
    }
    ++occupied_slots;
    if (find(keys_[s]) != s) return false;
  }
  return occupied_slots == live_;
}

CoherenceDomain::CoherenceDomain(const MachineConfig& config,
                                 const Topology& topology,
                                 Interconnect& interconnect)
    : l2_latency_(config.l2.latency),
      interconnect_(&interconnect),
      holder_words_((static_cast<std::size_t>(topology.num_l2()) + 63) / 64),
      socket_rows_(static_cast<std::size_t>(topology.num_l2()) * holder_words_,
                   0),
      directory_(holder_words_) {
  l2s_.reserve(static_cast<std::size_t>(topology.num_l2()));
  for (int i = 0; i < topology.num_l2(); ++i) {
    l2s_.emplace_back(config.l2);
  }
  for (int a = 0; a < topology.num_l2(); ++a) {
    for (int b = 0; b < topology.num_l2(); ++b) {
      if (topology.socket_of_l2(a) == topology.socket_of_l2(b)) {
        socket_rows_[static_cast<std::size_t>(a) * holder_words_ +
                     holder_word(b)] |= holder_mask(b);
      }
    }
  }
}

void CoherenceDomain::drop(L2Id holder, LineAddr line) {
  if (on_line_drop_) on_line_drop_(holder, line);
}

template <typename Fn>
void CoherenceDomain::take_remote_holders(L2Id me, LineAddr line, Fn&& fn) {
  const std::size_t slot = directory_.find(line);
  if (slot == DirectoryTable::kNotFound) return;
  const std::span<std::uint64_t> holders = directory_.row(slot);
  for_each_holder(holders, me, [&](int b) {
    fn(checked_l2id(static_cast<std::size_t>(b), l2s_.size()));
  });
  std::fill(holders.begin(), holders.end(), std::uint64_t{0});
  holders[holder_word(me)] = holder_mask(me);
}

void CoherenceDomain::directory_set(L2Id holder, LineAddr line) {
  directory_.row(directory_.find_or_insert(line))[holder_word(holder)] |=
      holder_mask(holder);
}

void CoherenceDomain::directory_clear(L2Id holder, LineAddr line) {
  const std::size_t slot = directory_.find(line);
  if (slot == DirectoryTable::kNotFound) return;
  const std::span<std::uint64_t> holders = directory_.row(slot);
  holders[holder_word(holder)] &= ~holder_mask(holder);
  if (std::all_of(holders.begin(), holders.end(),
                  [](std::uint64_t w) { return w == 0; })) {
    directory_.erase(slot);
  }
}

L2Id CoherenceDomain::probe(L2Id me, LineAddr line, MachineStats& stats) {
  // The address probe still goes out to every peer on the bus — only the
  // simulator-side resolution is a holder-set lookup instead of a set walk.
  interconnect_->record_probe_broadcast(me, stats);
  ++dir_stats_.probes;
  const std::size_t slot = directory_.find(line);
  if (slot == DirectoryTable::kNotFound) return -1;
  // Nearest holder, matching the broadcast scan's tie-break: the
  // lowest-indexed holder on my socket when one exists, else the
  // lowest-indexed holder overall.
  const HolderRow holders = std::as_const(directory_).row(slot);
  int pick = first_holder_in(holders, socket_row(me), me);
  if (pick == -1) pick = first_holder(holders, me);
  if (pick == -1) return -1;
  ++dir_stats_.holder_hits;
  return checked_l2id(static_cast<std::size_t>(pick), l2s_.size());
}

void CoherenceDomain::insert_line(L2Id me, LineAddr line, MesiState state,
                                  std::size_t& l2_way, MachineStats& stats) {
  auto evicted =
      l2s_[static_cast<std::size_t>(me)].insert(line, state, l2_way);
  // Victim first: the table then never holds more lines than the L2s do,
  // so a full machine sits at exactly half load instead of doubling for
  // one transient entry.
  if (evicted.has_value()) directory_clear(me, evicted->addr);
  directory_set(me, line);
  if (evicted.has_value()) {
    if (evicted->state == MesiState::kModified) ++stats.writebacks;
    drop(me, evicted->addr);
  }
}

Cycles CoherenceDomain::read(L2Id me, LineAddr line, Cycles memory_latency,
                             std::size_t& l2_way, MachineStats& stats) {
  ++stats.l2_accesses;
  Cache& mine = l2s_[static_cast<std::size_t>(me)];
  if (mine.find(line, l2_way) != nullptr) {
    ++stats.l2_hits;
    return l2_latency_;
  }
  ++stats.l2_misses;
  Cycles latency = l2_latency_;
  const L2Id holder = probe(me, line, stats);
  if (holder != -1) {
    // Cache-to-cache transfer: the paper's snoop transaction.
    Cache& theirs = l2s_[static_cast<std::size_t>(holder)];
    MesiState* held = theirs.peek_mutable(line);
    if (*held == MesiState::kModified) ++stats.writebacks;
    *held = MesiState::kShared;
    ++stats.snoop_transactions;
    latency += interconnect_->transfer(holder, me, stats);
    insert_line(me, line, MesiState::kShared, l2_way, stats);
  } else {
    ++stats.memory_fetches;
    latency += memory_latency;
    insert_line(me, line, MesiState::kExclusive, l2_way, stats);
  }
  return latency;
}

Cycles CoherenceDomain::write(L2Id me, LineAddr line, Cycles memory_latency,
                              std::size_t& l2_way, MachineStats& stats) {
  ++stats.l2_accesses;
  Cache& mine = l2s_[static_cast<std::size_t>(me)];
  if (MesiState* held = mine.find(line, l2_way)) {
    ++stats.l2_hits;
    switch (*held) {
      case MesiState::kModified:
        return 1;  // store-buffered; ownership already held
      case MesiState::kExclusive:
        *held = MesiState::kModified;
        return 1;
      case MesiState::kShared: {
        // Ownership upgrade: invalidate every remote copy. Messages go out
        // in parallel, so the stall is the slowest acknowledgement.
        Cycles worst = 0;
        take_remote_holders(me, line, [&](L2Id other) {
          ++dir_stats_.holder_visits;
          l2s_[static_cast<std::size_t>(other)].invalidate(line);
          ++stats.invalidations;
          worst = std::max(worst, interconnect_->invalidate(me, other, stats));
          drop(other, line);
        });
        *held = MesiState::kModified;
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
    take_remote_holders(me, line, [&](L2Id other) {
      ++dir_stats_.holder_visits;
      const auto old = l2s_[static_cast<std::size_t>(other)].invalidate(line);
      ++stats.invalidations;
      if (old.has_value() && *old == MesiState::kModified) ++stats.writebacks;
      drop(other, line);
      if (other == source) {
        ++stats.snoop_transactions;
        worst = std::max(worst, interconnect_->transfer(other, me, stats));
      } else {
        worst = std::max(worst, interconnect_->invalidate(me, other, stats));
      }
    });
    latency += worst;
  } else {
    ++stats.memory_fetches;
    latency += memory_latency;
  }
  insert_line(me, line, MesiState::kModified, l2_way, stats);
  return latency;
}

void CoherenceDomain::flush() {
  for (Cache& c : l2s_) c.flush();
  directory_.clear();
}

bool CoherenceDomain::directory_consistent() const {
  if (!directory_.consistent()) return false;
  // Every valid cached line must be tracked with its holder bit set...
  for (int id = 0; id < num_l2(); ++id) {
    bool ok = true;
    l2s_[static_cast<std::size_t>(id)].for_each_line([&](const CacheLine& cl) {
      const std::size_t slot = directory_.find(cl.addr);
      if (slot == DirectoryTable::kNotFound ||
          (directory_.row(slot)[holder_word(id)] & holder_mask(id)) == 0) {
        ok = false;
      }
    });
    if (!ok) return false;
  }
  // ...and every directory bit must map back to a resident line.
  for (std::size_t slot = 0; slot < directory_.capacity(); ++slot) {
    if (!directory_.occupied(slot)) continue;
    const LineAddr line = directory_.key(slot);
    const HolderRow holders = directory_.row(slot);
    if (first_holder(holders, -1) == -1) return false;  // erased eagerly
    bool ok = true;
    for_each_holder(holders, -1, [&](int b) {
      const auto id = static_cast<std::size_t>(b);
      if (id >= l2s_.size() || l2s_[id].peek(line) == nullptr) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace tlbmap
