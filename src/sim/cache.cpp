#include "sim/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tlbmap {

Cache::Cache(const CacheConfig& config)
    : config_(validated(config)),
      ways_(config_.ways),
      set_of_(config_.num_sets()),
      tags_(config_.num_lines(), kInvalidTag),
      stamps_(config_.num_lines(), 0),
      states_(config_.num_lines(), MesiState::kInvalid) {}

const MesiState* Cache::peek(LineAddr addr) const {
  const std::size_t i = find_way(set_index(addr) * ways_, addr);
  return i == kNoWay ? nullptr : &states_[i];
}

MesiState* Cache::peek_mutable(LineAddr addr) {
  return const_cast<MesiState*>(std::as_const(*this).peek(addr));
}

std::optional<Cache::Eviction> Cache::insert(LineAddr addr, MesiState state,
                                             std::size_t& hint) {
  if (addr == kInvalidTag) {
    throw std::invalid_argument(
        "Cache::insert: line ~0 is the tag of an empty way");
  }
  if (hint >= tags_.size() || tags_[hint] != addr) {
    const std::size_t base = set_index(addr) * ways_;
    hint = base + pick_way(tags_.data() + base, stamps_.data() + base, ways_,
                           addr);
  }
  std::optional<Eviction> evicted;
  if (tags_[hint] != addr && tags_[hint] != kInvalidTag) {
    evicted = Eviction{tags_[hint], states_[hint]};
  }
  tags_[hint] = addr;
  stamps_[hint] = ++clock_;
  states_[hint] = state;
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
