#include "sim/cache.hpp"

#include <algorithm>

namespace tlbmap {

Cache::Cache(const CacheConfig& config) : config_(config) {
  // Validate before deriving geometry: num_sets() divides by the fields
  // being checked.
  config_.validate();
  num_sets_ = config_.num_sets();
  ways_ = config_.ways;
  lines_.resize(num_sets_ * ways_);
  tags_.assign(num_sets_ * ways_, kInvalidTag);
}

CacheLine* Cache::find_in_set(std::size_t set, LineAddr addr) {
  CacheLine* base = lines_.data() + set * ways_;
  if (simd_scan_enabled()) {
    const int w = scan_tags(tags_.data() + set * ways_, ways_, addr);
    return w < 0 ? nullptr : &base[w];
  }
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].valid() && base[w].addr == addr) return &base[w];
  }
  return nullptr;
}

CacheLine* Cache::find(LineAddr addr) {
  CacheLine* line = find_in_set(set_index(addr), addr);
  if (line != nullptr) line->lru_stamp = ++clock_;
  return line;
}

const CacheLine* Cache::peek(LineAddr addr) const {
  return const_cast<Cache*>(this)->find_in_set(set_index(addr), addr);
}

CacheLine* Cache::peek_mutable(LineAddr addr) {
  return find_in_set(set_index(addr), addr);
}

std::optional<Cache::Eviction> Cache::insert(LineAddr addr, MesiState state) {
  const std::size_t set = set_index(addr);
  if (CacheLine* present = find_in_set(set, addr)) {
    present->state = state;
    present->lru_stamp = ++clock_;
    return std::nullopt;
  }
  CacheLine* base = lines_.data() + set * ways_;
  CacheLine* victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (!base[w].valid()) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
  }
  std::optional<Eviction> evicted;
  if (victim->valid()) {
    evicted = Eviction{victim->addr, victim->state};
  }
  victim->addr = addr;
  victim->state = state;
  victim->lru_stamp = ++clock_;
  tags_[static_cast<std::size_t>(victim - lines_.data())] = addr;
  return evicted;
}

std::optional<MesiState> Cache::invalidate(LineAddr addr) {
  if (CacheLine* line = find_in_set(set_index(addr), addr)) {
    const MesiState old = line->state;
    line->state = MesiState::kInvalid;
    tags_[static_cast<std::size_t>(line - lines_.data())] = kInvalidTag;
    return old;
  }
  return std::nullopt;
}

void Cache::flush() {
  // Every mutation either bumps clock_ (insert, a find hit) or needs a
  // line inserted earlier (invalidate, a state change via peek_mutable),
  // so clock_ == 0 means nothing changed since construction or the last
  // flush.
  if (clock_ == 0) return;
  std::fill(lines_.begin(), lines_.end(), CacheLine{});
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  clock_ = 0;
}

std::size_t Cache::valid_lines() const {
  return static_cast<std::size_t>(
      std::count_if(lines_.begin(), lines_.end(),
                    [](const CacheLine& l) { return l.valid(); }));
}

}  // namespace tlbmap
