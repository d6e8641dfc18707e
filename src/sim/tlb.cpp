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
  const std::size_t base = set_index(page) * ways_;
  const std::size_t way =
      base + pick_way(tags_.data() + base, stamps_.data() + base, ways_, page);
  tags_[way] = page;
  stamps_[way] = ++clock_;
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
