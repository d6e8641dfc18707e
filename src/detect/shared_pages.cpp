#include "detect/shared_pages.hpp"

namespace tlbmap {

SharedPageCounts add_shared_pages(
    std::span<const std::pair<PageNum, ThreadId>> entries,
    CommMatrix& matrix) {
  SharedPageCounts counts;
  std::size_t begin = 0;
  while (begin < entries.size()) {
    std::size_t end = begin + 1;
    while (end < entries.size() &&
           entries[end].first == entries[begin].first) {
      ++end;
    }
    const std::uint64_t k = end - begin;
    if (k >= 2) {
      ++counts.pages;
      counts.matches += k * (k - 1) / 2;
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < end; ++j) {
          matrix.add(entries[i].second, entries[j].second);
        }
      }
    }
    begin = end;
  }
  return counts;
}

}  // namespace tlbmap
