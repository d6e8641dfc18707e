#include "sim/coherence.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace tlbmap {

namespace {

/// The lanes below lane k.
constexpr std::uint64_t low_lanes(unsigned k) {
  return (std::uint64_t{1} << (16 * k)) - 1;
}

}  // namespace

HolderPool::HolderPool(int num_l2)
    : num_l2_(static_cast<std::size_t>(num_l2)),
      words_per_row_((num_l2_ + 63) / 64) {}

bool HolderPool::add(HolderCell& cell, L2Id id) {
  const auto v = static_cast<std::uint64_t>(id);
  if (pooled(cell)) {
    std::uint64_t& word = row(cell)[v / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((word & bit) == 0) {
      word |= bit;
      cell += std::uint64_t{1} << 16;  // holder count
    }
    return false;
  }
  // First lane at or above `id`; free lanes (0xFFFF) sort above every id.
  unsigned k = 0;
  while (k < kLanes && lane(cell, k) < v) ++k;
  if (k < kLanes && lane(cell, k) == v) return false;
  if (lane(cell, kLanes - 1) != kFreeLane) {
    convert(cell, id);
    return true;
  }
  // Lanes k.. move up one; the top lane, free, drops off.
  const std::uint64_t above =
      (cell << 16) & ((~std::uint64_t{0} << (16 * k)) << 16);
  cell = (cell & low_lanes(k)) | (v << (16 * k)) | above;
  return false;
}

void HolderPool::convert(HolderCell& cell, L2Id id) {
  std::uint32_t index = 0;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(rows());
    words_.resize(words_.size() + words_per_row_);
  } else {
    index = free_.back();
    free_.pop_back();
  }
  const HolderCell inline_cell = cell;
  cell = kPooledLane | (std::uint64_t{kLanes + 1} << 16) |
         (std::uint64_t{index} << 32);
  std::uint64_t* bits = row(cell);
  std::fill_n(bits, words_per_row_, std::uint64_t{0});
  const auto set = [bits](std::uint64_t b) {
    bits[b / 64] |= std::uint64_t{1} << (b % 64);
  };
  for (unsigned k = 0; k < kLanes; ++k) set(lane(inline_cell, k));
  set(static_cast<std::uint64_t>(id));
}

bool HolderPool::remove(HolderCell& cell, L2Id id) {
  const auto v = static_cast<std::uint64_t>(id);
  if (pooled(cell)) {
    std::uint64_t& word = row(cell)[v / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    if (holder_count(cell) > kLanes + 1) {
      cell -= std::uint64_t{1} << 16;
      return false;
    }
    // Four holders left: back inline, one per lane in ascending order.
    HolderCell back = 0;
    unsigned k = 0;
    visit(cell, [&](L2Id h) {
      back |= static_cast<std::uint64_t>(h) << (16 * k++);
      return false;
    });
    release(cell);
    cell = back;
    return false;
  }
  unsigned k = 0;
  while (k < kLanes && lane(cell, k) < v) ++k;
  if (k == kLanes || lane(cell, k) != v) return false;
  // Lanes k+1.. move down one; the top lane becomes free.
  const std::uint64_t above = (cell >> 16) | (kFreeLane << 48);
  cell = (cell & low_lanes(k)) | (above & ~low_lanes(k));
  return lane(cell, 0) == kFreeLane;
}

void HolderPool::reset(HolderCell& cell, L2Id id) {
  if (pooled(cell)) release(cell);
  cell = (kEmptyCell << 16) | static_cast<std::uint64_t>(id);
}

void HolderPool::clear() {
  free_.clear();
  for (std::size_t r = rows(); r > 0; --r) {
    free_.push_back(static_cast<std::uint32_t>(r - 1));
  }
}

bool HolderPool::well_formed(HolderCell cell) const {
  if (!pooled(cell)) {
    if (lane(cell, 0) == kFreeLane) return false;
    for (unsigned k = 1; k < kLanes; ++k) {
      const std::uint64_t l = lane(cell, k);
      if (l == kFreeLane) continue;
      if (l <= lane(cell, k - 1) || l >= num_l2_) return false;
    }
    return lane(cell, 0) < num_l2_;
  }
  if (row_index(cell) >= rows() ||
      std::find(free_.begin(), free_.end(), row_index(cell)) != free_.end()) {
    return false;
  }
  std::uint64_t count = 0;
  const std::uint64_t* bits = row(cell);
  for (std::size_t i = 0; i < words_per_row_; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(bits[i]));
  }
  return count == holder_count(cell) && count > kLanes;
}

DirectoryTable::DirectoryTable(std::size_t min_capacity) {
  allocate(std::bit_ceil(std::max<std::size_t>(min_capacity, 2)));
}

void DirectoryTable::allocate(std::size_t capacity) {
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  slots_.assign(capacity, DirectorySlot{});
}

void DirectoryTable::grow() {
  const std::vector<DirectorySlot> old = std::move(slots_);
  allocate(2 * capacity());
  for (const DirectorySlot& entry : old) {
    if (entry.line == kEmpty) continue;
    std::size_t i = home(entry.line);
    while (slot(i).line != kEmpty) i = (i + 1) & mask_;
    slot(i) = entry;
  }
}

std::size_t DirectoryTable::find_or_insert(LineAddr line) {
  std::size_t i = home(line);
  for (; slot(i).line != kEmpty; i = (i + 1) & mask_) {
    if (slot(i).line == line) return i;
  }
  if (2 * (live_ + 1) > capacity()) {
    grow();
    for (i = home(line); slot(i).line != kEmpty; i = (i + 1) & mask_) {
    }
  }
  slot(i).line = line;
  ++live_;
  return i;
}

void DirectoryTable::erase(std::size_t at) {
  // Backward-shift deletion: walk the rest of the cluster and pull back
  // every entry whose probe path crosses the hole (its home is not
  // cyclically inside (hole, i]), so every key stays reachable from its
  // home without tombstones.
  std::size_t hole = at;
  for (std::size_t i = (at + 1) & mask_; slot(i).line != kEmpty;
       i = (i + 1) & mask_) {
    if (((i - home(slot(i).line)) & mask_) >= ((i - hole) & mask_)) {
      slot(hole) = slot(i);
      hole = i;
    }
  }
  slot(hole) = DirectorySlot{};
  --live_;
}

void DirectoryTable::clear() {
  if (live_ == 0) return;
  allocate(capacity());
  live_ = 0;
}

bool DirectoryTable::consistent() const {
  if (2 * live_ > capacity()) return false;
  std::size_t occupied_slots = 0;
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (!occupied(i)) {
      if (cell(i) != HolderPool::kEmptyCell) return false;
      continue;
    }
    ++occupied_slots;
    if (find(key(i)) != i) return false;
  }
  return occupied_slots == live_;
}

CoherenceDomain::CoherenceDomain(const MachineConfig& config,
                                 const Topology& topology,
                                 Interconnect& interconnect)
    : l2_latency_(config.l2.latency),
      interconnect_(&interconnect),
      l2s_per_socket_(static_cast<unsigned>(topology.l2s_per_socket())),
      pool_(topology.num_l2()),
      directory_(std::min(
          std::bit_ceil(2 * static_cast<std::size_t>(topology.num_l2()) *
                        config.l2.num_lines()),
          kMaxStartSlots)) {
  l2s_.reserve(static_cast<std::size_t>(topology.num_l2()));
  for (int i = 0; i < topology.num_l2(); ++i) {
    l2s_.emplace_back(config.l2);
  }
}

void CoherenceDomain::drop(L2Id holder, LineAddr line) {
  if (on_line_drop_) on_line_drop_(holder, line);
}

template <typename Fn>
void CoherenceDomain::take_remote_holders(L2Id me, LineAddr line, Fn&& fn) {
  const std::size_t slot = directory_.find(line);
  if (slot == DirectoryTable::kNotFound) return;
  HolderCell& cell = directory_.cell(slot);
  pool_.visit(cell, [&](L2Id h) {
    if (h != me) fn(h);
    return false;
  });
  pool_.reset(cell, me);
}

void CoherenceDomain::directory_set(L2Id holder, LineAddr line) {
  if (pool_.add(directory_.cell(directory_.find_or_insert(line)), holder)) {
    ++dir_stats_.pooled_rows;
  }
}

void CoherenceDomain::directory_clear(L2Id holder, LineAddr line) {
  const std::size_t slot = directory_.find(line);
  if (slot == DirectoryTable::kNotFound) return;
  if (pool_.remove(directory_.cell(slot), holder)) directory_.erase(slot);
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
  // lowest-indexed holder overall. A tracked line has a holder, and `me`
  // missed, so that holder is remote.
  const auto my_socket_first =
      static_cast<unsigned>(me) - static_cast<unsigned>(me) % l2s_per_socket_;
  L2Id pick = -1;
  pool_.visit(directory_.cell(slot), [&](L2Id h) {
    if (pick == -1) pick = h;
    if (static_cast<unsigned>(h) - my_socket_first < l2s_per_socket_) {
      pick = h;
      return true;
    }
    return false;
  });
  ++dir_stats_.holder_hits;
  return pick;
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
  pool_.clear();
}

bool CoherenceDomain::directory_consistent() const {
  if (!directory_.consistent()) return false;
  // Every valid cached line must be tracked with its holder named...
  for (int id = 0; id < num_l2(); ++id) {
    bool ok = true;
    l2s_[static_cast<std::size_t>(id)].for_each_line([&](const CacheLine& cl) {
      const std::size_t slot = directory_.find(cl.addr);
      bool named = false;
      if (slot != DirectoryTable::kNotFound) {
        pool_.visit(directory_.cell(slot), [&](L2Id h) {
          named = h == id;
          return h >= id;
        });
      }
      if (!named) ok = false;
    });
    if (!ok) return false;
  }
  // ...and every cell must be well formed, own its pooled row alone and
  // name only L2s that hold the line.
  std::vector<bool> row_owned(pool_.rows(), false);
  std::size_t pooled_cells = 0;
  for (std::size_t slot = 0; slot < directory_.capacity(); ++slot) {
    if (!directory_.occupied(slot)) continue;
    const LineAddr line = directory_.key(slot);
    const HolderCell cell = directory_.cell(slot);
    if (!pool_.well_formed(cell)) return false;
    if (HolderPool::pooled(cell)) {
      if (row_owned[HolderPool::row_index(cell)]) return false;
      row_owned[HolderPool::row_index(cell)] = true;
      ++pooled_cells;
    }
    bool ok = true;
    pool_.visit(cell, [&](L2Id h) {
      ok = l2s_[static_cast<std::size_t>(h)].peek(line) != nullptr;
      return !ok;
    });
    if (!ok) return false;
  }
  return pooled_cells == pool_.rows_in_use();
}

}  // namespace tlbmap
