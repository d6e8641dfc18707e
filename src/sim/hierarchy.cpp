#include "sim/hierarchy.hpp"

namespace tlbmap {

namespace {
int shift_for(std::size_t power_of_two) {
  int s = 0;
  for (std::size_t v = power_of_two; v > 1; v >>= 1) ++s;
  return s;
}
}  // namespace

MemoryHierarchy::MemoryHierarchy(const MachineConfig& config)
    : config_(config),
      topology_(config),
      interconnect_(topology_, config.interconnect),
      page_table_(config.page_shift()),
      coherence_(config, topology_, interconnect_),
      line_shift_(shift_for(config.l1.line_size)) {
  config_.validate();
  tlbs_.reserve(static_cast<std::size_t>(topology_.num_cores()));
  l1s_.reserve(static_cast<std::size_t>(topology_.num_cores()));
  for (int c = 0; c < topology_.num_cores(); ++c) {
    tlbs_.emplace_back(config.tlb);
    l1s_.emplace_back(config.l1);
  }
  memos_.resize(static_cast<std::size_t>(topology_.num_cores()));
  hints_.resize(static_cast<std::size_t>(topology_.num_cores()));
  // Keep L1s inclusive: when an L2 loses a line, shoot it down in the L1s of
  // the cores attached to that L2. Cores of an L2 are a contiguous id range.
  coherence_.set_line_drop_callback([this](L2Id l2, LineAddr line) {
    const CoreId first = l2 * topology_.cores_per_l2();
    for (CoreId core = first; core < first + topology_.cores_per_l2();
         ++core) {
      l1s_[static_cast<std::size_t>(core)].invalidate(line);
    }
  });
}

MemoryHierarchy::AccessInfo MemoryHierarchy::access(CoreId core,
                                                    VirtAddr addr,
                                                    AccessType type,
                                                    MachineStats& stats) {
  AccessInfo info;
  ++stats.accesses;
  if (type == AccessType::kRead) {
    ++stats.reads;
  } else {
    ++stats.writes;
  }

  // Address translation. On NUMA machines the first touch also homes the
  // page: on the toucher's socket (first-touch) or striped (interleave).
  info.page = page_table_.page_of(addr);
  TranslationMemo& memo = memos_[static_cast<std::size_t>(core)];
  PhysAddr phys;
  Cycles memory_latency;
  bool remote_home;
  if (memo.valid && memo.page == info.page) {
    // Same-page streak: the page is this core's MRU TLB entry, so this is a
    // guaranteed hit and the translation is already known.
    ++stats.tlb_hits;
    phys = memo.frame_base | page_table_.page_offset(addr);
    memory_latency = memo.memory_latency;
    remote_home = memo.remote_home;
  } else {
    Tlb& tlb = tlbs_[static_cast<std::size_t>(core)];
    if (tlb.lookup(info.page)) {
      ++stats.tlb_hits;
    } else {
      ++stats.tlb_misses;
      info.tlb_miss = true;
      tlb.insert(info.page);
      info.latency += config_.tlb.miss_penalty;
    }
    const int home =
        config_.numa_policy == NumaPolicy::kInterleave
            ? static_cast<int>(info.page %
                               static_cast<PageNum>(config_.num_sockets))
            : topology_.socket_of(core);
    const PhysAddr frame_base = page_table_.frame_of(info.page, home)
                                << config_.page_shift();
    phys = frame_base | page_table_.page_offset(addr);

    // Memory latency depends on where the page actually lives (recorded at
    // its first touch, which may have homed it elsewhere).
    memory_latency = config_.interconnect.memory_latency;
    remote_home = config_.numa &&
                  page_table_.home_of(info.page) != topology_.socket_of(core);
    if (remote_home) {
      memory_latency += config_.interconnect.memory_remote_extra;
    }
    memo = {info.page, frame_base, memory_latency, remote_home, true};
  }
  const LineAddr line = phys >> line_shift_;

  Cache& l1 = l1s_[static_cast<std::size_t>(core)];
  WayHints& hint = hints_[static_cast<std::size_t>(core)];
  const L2Id l2 = topology_.l2_of(core);

  const auto count_fetch_locality = [&](std::uint64_t fetches_before) {
    if (stats.memory_fetches > fetches_before) {
      if (remote_home) {
        ++stats.memory_fetches_remote;
      } else {
        ++stats.memory_fetches_local;
      }
    }
  };

  if (type == AccessType::kRead) {
    if (l1.find(line, hint.l1) != nullptr) {
      ++stats.l1_hits;
      info.latency += config_.l1.latency;
      return info;
    }
    ++stats.l1_misses;
    const std::uint64_t fetches_before = stats.memory_fetches;
    info.latency += config_.l1.latency +
                    coherence_.read(l2, line, memory_latency, hint.l2, stats);
    count_fetch_locality(fetches_before);
    // Write-through L1: never dirty.
    l1.insert(line, MesiState::kShared, hint.l1);
    return info;
  }

  // Write-through, no-write-allocate L1: refresh a present copy, then push
  // the store to the L2, which performs the MESI ownership work.
  if (l1.find(line, hint.l1) != nullptr) {
    ++stats.l1_hits;
  } else {
    ++stats.l1_misses;
  }
  const std::uint64_t fetches_before = stats.memory_fetches;
  const std::uint64_t l2_hits_before = stats.l2_hits;
  info.latency += coherence_.write(l2, line, memory_latency, hint.l2, stats);
  count_fetch_locality(fetches_before);
  // Cores behind the same L2 do not appear on the snoop bus, so their L1
  // copies must be shot down locally or they would keep serving stale hits.
  // The L1s are inclusive in the L2, so after a write miss no sibling L1
  // can hold the line and the shootdown is a no-op. The write itself never
  // touches a sibling L1's copy of the line, and invalidate() leaves LRU
  // alone, so it does not matter that the shootdown follows the write.
  if (stats.l2_hits > l2_hits_before) {
    const CoreId first = l2 * topology_.cores_per_l2();
    for (CoreId sibling = first; sibling < first + topology_.cores_per_l2();
         ++sibling) {
      if (sibling != core) {
        l1s_[static_cast<std::size_t>(sibling)].invalidate(line);
      }
    }
  }
  return info;
}

void MemoryHierarchy::flush_caches() {
  for (Tlb& t : tlbs_) t.flush();
  for (Cache& c : l1s_) c.flush();
  coherence_.flush();
  for (TranslationMemo& m : memos_) m.valid = false;
}

}  // namespace tlbmap
