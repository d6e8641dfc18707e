// Shared-page grouping: the step the HM sweep (paper Sec. IV-B) and the
// streaming detector have in common. Both hold a set of pages per thread
// (TLB contents or an LRU window) and count, for every pair of threads, the
// pages they hold in common. Sorting the (page, thread) entries by page puts
// each page's sharers next to each other; a page held by k threads then
// contributes one count to each of its C(k, 2) thread pairs, which is
// exactly the pairwise intersection count of the paper's all-pairs walk.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "detect/comm_matrix.hpp"
#include "sim/types.hpp"

namespace tlbmap {

struct SharedPageCounts {
  std::uint64_t pages = 0;    ///< pages held by >= 2 threads
  std::uint64_t matches = 0;  ///< pair counts added: sum of C(k, 2)
};

/// Adds C(k, 2) pair counts to `matrix` for every page held by k >= 2
/// threads. `entries` must be sorted by page and hold each (page, thread)
/// pair at most once — a thread listing a page twice would count as two
/// sharers. Callers gather and sort themselves, so they can time that step.
SharedPageCounts add_shared_pages(
    std::span<const std::pair<PageNum, ThreadId>> entries, CommMatrix& matrix);

}  // namespace tlbmap
