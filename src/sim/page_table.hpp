// First-touch page table for the single shared simulated address space.
//
// All workload threads belong to one process (the shared-memory paradigm),
// so one table maps virtual pages to physical frames. Frames are handed out
// sequentially on first touch, which keeps translation deterministic — a
// property several tests and the oracle detector rely on.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/types.hpp"

namespace tlbmap {

class PageTable {
 public:
  /// One mapped page: its frame and the memory node it is homed on.
  struct Entry {
    FrameNum frame;
    int home_node;
  };

  explicit PageTable(int page_shift) : page_shift_(page_shift) {}

  PageNum page_of(VirtAddr addr) const { return addr >> page_shift_; }

  VirtAddr page_offset(VirtAddr addr) const {
    return addr & ((VirtAddr{1} << page_shift_) - 1);
  }

  /// Translates, allocating a fresh frame on first touch (homed on node 0;
  /// NUMA-aware callers should use frame_of with an explicit home).
  PhysAddr translate(VirtAddr addr) {
    return (frame_of(page_of(addr), 0) << page_shift_) | page_offset(addr);
  }

  /// Frame for a page, allocating on first touch and recording the page's
  /// home memory node (ignored if the page is already mapped).
  FrameNum frame_of(PageNum page, int home_node = 0) {
    auto [it, inserted] = frames_.try_emplace(page, Entry{next_frame_, home_node});
    if (inserted) ++next_frame_;
    return it->second.frame;
  }

  /// Home memory node of a mapped page; -1 if never touched.
  int home_of(PageNum page) const {
    const auto it = frames_.find(page);
    return it == frames_.end() ? -1 : it->second.home_node;
  }

  /// True if the page has been touched already (no allocation).
  bool mapped(PageNum page) const { return frames_.contains(page); }

  std::size_t mapped_pages() const { return frames_.size(); }
  int page_shift() const { return page_shift_; }

 private:
  int page_shift_;
  FrameNum next_frame_ = 0;
  std::unordered_map<PageNum, Entry> frames_;
};

}  // namespace tlbmap
