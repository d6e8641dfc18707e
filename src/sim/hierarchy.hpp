// Per-core view of the memory system: TLB -> private L1 -> shared L2 (MESI)
// -> memory. Composes the component models and keeps the L1s inclusive with
// respect to their L2 via the coherence domain's line-drop callback.
//
// Three engine shortcuts change no simulated outcome:
//  - a per-core memo of the last translation skips the TLB and page-table
//    work of a same-page repeat;
//  - each core keeps one way hint into its L1 and one into its L2: the
//    flat way index its last lookup or fill there ended on. Cache::find and
//    Cache::insert test that way's tag before walking the set, so a read
//    followed by a store to the same line, or a streak of reads, walks
//    each set once. A hint is checked against the tag, never trusted, so
//    no eviction, invalidation or flush has to clear it. A fill that walks
//    takes the way pick_way() (scan.hpp) chooses, the one branch-free
//    victim pick Cache and Tlb share;
//  - the sibling-L1 shootdown after a store runs only when the store hit
//    in the L2.
// The hierarchy differential test checks every access against
// ReferenceHierarchy (tests/reference_coherence.hpp), which has none of
// these shortcuts.
//
// Only data accesses are modelled: the paper notes (Sec. III-A1) that
// instruction fetches are irrelevant to mapping because instructions are
// effectively read-only after load.
#pragma once

#include <memory>
#include <vector>

#include "sim/cache.hpp"
#include "sim/coherence.hpp"
#include "sim/config.hpp"
#include "sim/interconnect.hpp"
#include "sim/page_table.hpp"
#include "sim/stats.hpp"
#include "sim/tlb.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const MachineConfig& config);

  /// What one access did; the machine feeds `tlb_miss`/`page` to detectors.
  struct AccessInfo {
    Cycles latency = 0;
    bool tlb_miss = false;
    PageNum page = 0;
  };

  /// Runs one data access issued by `core` through TLB, L1 and L2/coherence.
  AccessInfo access(CoreId core, VirtAddr addr, AccessType type,
                    MachineStats& stats);

  const MachineConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }
  Tlb& tlb(CoreId core) { return tlbs_[static_cast<std::size_t>(core)]; }
  const Tlb& tlb(CoreId core) const {
    return tlbs_[static_cast<std::size_t>(core)];
  }
  Cache& l1(CoreId core) { return l1s_[static_cast<std::size_t>(core)]; }
  CoherenceDomain& coherence() { return coherence_; }
  PageTable& page_table() { return page_table_; }
  Interconnect& interconnect() { return interconnect_; }

  /// Clears all caches and TLBs (between repetitions); the page table is
  /// kept, since physical placement would survive on a real machine too.
  void flush_caches();

 private:
  /// Memo of a core's most recent translation. Between two consecutive
  /// accesses by the same core nothing touches that core's TLB, so a
  /// same-page repeat is a guaranteed hit on the MRU entry and the whole
  /// page_of/lookup/frame_of/home_of chain can be skipped. Skipping the MRU
  /// stamp refresh preserves relative LRU order, so future evictions are
  /// unchanged. Reset by flush_caches().
  struct TranslationMemo {
    PageNum page = 0;
    PhysAddr frame_base = 0;  ///< frame_of(page) << page_shift
    Cycles memory_latency = 0;
    bool remote_home = false;
    bool valid = false;
  };

  /// A core's way hints into its L1 and its L2 (see the file comment).
  struct WayHints {
    std::size_t l1 = Cache::kNoWay;
    std::size_t l2 = Cache::kNoWay;
  };

  MachineConfig config_;
  Topology topology_;
  Interconnect interconnect_;
  PageTable page_table_;
  std::vector<Tlb> tlbs_;
  std::vector<Cache> l1s_;
  CoherenceDomain coherence_;
  int line_shift_;
  std::vector<TranslationMemo> memos_;
  std::vector<WayHints> hints_;
};

}  // namespace tlbmap
