#include "sim/tlb.hpp"

#include <algorithm>

namespace tlbmap {

Tlb::Tlb(const TlbConfig& config)
    : config_(validated(config)),
      ways_(config_.ways),
      set_of_(config_.num_sets()),
      entries_(config_.entries),
      tags_(config_.entries, kInvalidTag) {}

TlbEntry* Tlb::find(PageNum page) {
  const std::size_t first = set_index(page) * ways_;
  TlbEntry* base = entries_.data() + first;
  if (simd_scan_enabled()) {
    const int w = scan_tags(tags_.data() + first, ways_, page);
    return w < 0 ? nullptr : &base[w];
  }
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].page == page) return &base[w];
  }
  return nullptr;
}

bool Tlb::lookup(PageNum page) {
  if (TlbEntry* e = find(page)) {
    e->lru_stamp = ++clock_;
    return true;
  }
  return false;
}

void Tlb::insert(PageNum page) {
  if (TlbEntry* e = find(page)) {
    e->lru_stamp = ++clock_;
    return;
  }
  TlbEntry* base = entries_.data() + set_index(page) * ways_;
  TlbEntry* victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
  }
  victim->page = page;
  victim->valid = true;
  victim->lru_stamp = ++clock_;
  tags_[static_cast<std::size_t>(victim - entries_.data())] = page;
}

bool Tlb::contains(PageNum page) const {
  return const_cast<Tlb*>(this)->find(page) != nullptr;
}

bool Tlb::invalidate(PageNum page) {
  if (TlbEntry* e = find(page)) {
    e->valid = false;
    tags_[static_cast<std::size_t>(e - entries_.data())] = kInvalidTag;
    return true;
  }
  return false;
}

void Tlb::flush() {
  // Every mutation either bumps clock_ (insert, a lookup hit) or needs an
  // entry inserted earlier (invalidate), so clock_ == 0 means nothing
  // changed since construction or the last flush.
  if (clock_ == 0) return;
  std::fill(entries_.begin(), entries_.end(), TlbEntry{});
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  clock_ = 0;
}

std::span<const TlbEntry> Tlb::set_entries(std::size_t set) const {
  return {entries_.data() + set * ways_, ways_};
}

std::size_t Tlb::valid_entries() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const TlbEntry& e) { return e.valid; }));
}

}  // namespace tlbmap
