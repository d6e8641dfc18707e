#include "sim/tlb.hpp"

#include <algorithm>

namespace tlbmap {

Tlb::Tlb(const TlbConfig& config)
    : config_(validated(config)),
      ways_(config_.ways),
      set_of_(config_.num_sets()),
      tags_(config_.entries, kInvalidTag),
      stamps_(config_.entries, 0) {}

std::size_t Tlb::find_way(PageNum page) const {
  const std::size_t base = set_index(page) * ways_;
  const int w = scan_tags(tags_.data() + base, ways_, page);
  return w < 0 ? kNoWay : base + static_cast<std::size_t>(w);
}

bool Tlb::lookup(PageNum page) {
  const std::size_t i = find_way(page);
  if (i == kNoWay) return false;
  stamps_[i] = ++clock_;
  return true;
}

void Tlb::insert(PageNum page) {
  // One pass: the page itself if present, else the first empty way, else
  // the valid way with the smallest stamp (stamps of valid ways are
  // distinct, so that is the LRU entry).
  const std::size_t base = set_index(page) * ways_;
  std::size_t free_way = kNoWay;
  std::size_t lru_way = base;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == page) {
      stamps_[i] = ++clock_;
      return;
    }
    if (tags_[i] == kInvalidTag) {
      if (free_way == kNoWay) free_way = i;
    } else if (stamps_[i] < stamps_[lru_way]) {
      lru_way = i;
    }
  }
  const std::size_t victim = free_way == kNoWay ? lru_way : free_way;
  tags_[victim] = page;
  stamps_[victim] = ++clock_;
}

bool Tlb::contains(PageNum page) const { return find_way(page) != kNoWay; }

bool Tlb::invalidate(PageNum page) {
  const std::size_t i = find_way(page);
  if (i == kNoWay) return false;
  tags_[i] = kInvalidTag;
  return true;
}

void Tlb::flush() {
  // Every mutation either bumps clock_ (insert, a lookup hit) or needs an
  // entry inserted earlier (invalidate), so clock_ == 0 means nothing
  // changed since construction or the last flush. Stamps stay: insert
  // reads the stamp of valid ways only, and every way becomes valid
  // through insert, which stamps it.
  if (clock_ == 0) return;
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  clock_ = 0;
}

std::size_t Tlb::valid_entries() const {
  return static_cast<std::size_t>(
      std::count_if(tags_.begin(), tags_.end(),
                    [](std::uint64_t t) { return t != kInvalidTag; }));
}

}  // namespace tlbmap
