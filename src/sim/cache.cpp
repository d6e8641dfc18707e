#include "sim/cache.hpp"

#include <algorithm>
#include <utility>

namespace tlbmap {

Cache::Cache(const CacheConfig& config)
    : config_(validated(config)),
      ways_(config_.ways),
      set_of_(config_.num_sets()),
      tags_(config_.num_lines(), kInvalidTag),
      stamps_(config_.num_lines(), 0),
      states_(config_.num_lines(), MesiState::kInvalid) {}

std::size_t Cache::find_way(std::size_t base, LineAddr addr) const {
  const int w = scan_tags(tags_.data() + base, ways_, addr);
  return w < 0 ? kNoWay : base + static_cast<std::size_t>(w);
}

MesiState* Cache::find(LineAddr addr) {
  const std::size_t i = find_way(set_index(addr) * ways_, addr);
  if (i == kNoWay) return nullptr;
  stamps_[i] = ++clock_;
  return &states_[i];
}

const MesiState* Cache::peek(LineAddr addr) const {
  const std::size_t i = find_way(set_index(addr) * ways_, addr);
  return i == kNoWay ? nullptr : &states_[i];
}

MesiState* Cache::peek_mutable(LineAddr addr) {
  return const_cast<MesiState*>(std::as_const(*this).peek(addr));
}

std::optional<Cache::Eviction> Cache::insert(LineAddr addr, MesiState state) {
  // One pass: the line itself if present, else the first invalid way, else
  // the valid way with the smallest stamp (stamps of valid ways are
  // distinct, so that is the LRU line).
  const std::size_t base = set_index(addr) * ways_;
  std::size_t free_way = kNoWay;
  std::size_t lru_way = base;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == addr) {
      states_[i] = state;
      stamps_[i] = ++clock_;
      return std::nullopt;
    }
    if (tags_[i] == kInvalidTag) {
      if (free_way == kNoWay) free_way = i;
    } else if (stamps_[i] < stamps_[lru_way]) {
      lru_way = i;
    }
  }
  std::optional<Eviction> evicted;
  std::size_t victim = free_way;
  if (victim == kNoWay) {
    victim = lru_way;
    evicted = Eviction{tags_[victim], states_[victim]};
  }
  tags_[victim] = addr;
  stamps_[victim] = ++clock_;
  states_[victim] = state;
  return evicted;
}

std::optional<MesiState> Cache::invalidate(LineAddr addr) {
  const std::size_t i = find_way(set_index(addr) * ways_, addr);
  if (i == kNoWay) return std::nullopt;
  const MesiState old = states_[i];
  tags_[i] = kInvalidTag;
  states_[i] = MesiState::kInvalid;
  return old;
}

void Cache::flush() {
  // Every mutation either bumps clock_ (insert, a find hit) or needs a
  // line inserted earlier (invalidate, a state change via peek_mutable),
  // so clock_ == 0 means nothing changed since construction or the last
  // flush. Stamps stay: insert reads the stamp of valid ways only, and
  // every way becomes valid through insert, which stamps it.
  if (clock_ == 0) return;
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(states_.begin(), states_.end(), MesiState::kInvalid);
  clock_ = 0;
}

std::size_t Cache::valid_lines() const {
  return static_cast<std::size_t>(
      std::count_if(tags_.begin(), tags_.end(),
                    [](std::uint64_t t) { return t != kInvalidTag; }));
}

}  // namespace tlbmap
