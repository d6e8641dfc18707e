// Set-associative cache model with true-LRU replacement and MESI line states.
//
// The same structure backs the private L1 caches (which only use the
// valid/invalid distinction) and the shared L2 caches (whose states drive the
// snoop-bus coherence protocol in coherence.cpp). Timing and statistics are
// kept outside, in MemoryHierarchy, so the container stays a pure data
// structure that is easy to test exhaustively.
//
// Storage is struct-of-arrays: each way of each set is one tag, one LRU
// stamp and one MESI state in three parallel arrays, so a set scan reads
// eight dense tags instead of striding through line structs. The set index
// is a divide-free reduction (fast_mod.hpp), because the paper's L2 has a
// set count that is not a power of two.
//
// find() and insert() also take a way hint: a flat way index the caller
// remembers from its last access (any value, stale or out of range). It is
// tried with one tag compare before the set is walked. A line's tag occurs
// at most once in the whole cache, so a matching hint is exact, and a stale
// one costs nothing but the walk it would have done anyway: no event has
// to clear hints.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/config.hpp"
#include "sim/fast_mod.hpp"
#include "sim/scan.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// MESI coherence state of one cache line.
enum class MesiState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
};

inline const char* to_string(MesiState s) {
  switch (s) {
    case MesiState::kInvalid: return "I";
    case MesiState::kShared: return "S";
    case MesiState::kExclusive: return "E";
    case MesiState::kModified: return "M";
  }
  return "?";
}

/// One valid line as for_each_line reports it (a value, not storage).
struct CacheLine {
  LineAddr addr = 0;
  MesiState state = MesiState::kInvalid;
};

/// Generic set-associative cache keyed by line address.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Line evicted to make room for an insert (absent when a set had a free
  /// or invalid way).
  struct Eviction {
    LineAddr addr = 0;
    MesiState state = MesiState::kInvalid;
  };

  /// Way hint that matches no way.
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Looks a line up and refreshes its LRU stamp. Returns the line's state,
  /// or nullptr on miss. kInvalidTag, the tag of an empty way, always
  /// misses.
  MesiState* find(LineAddr addr) {
    std::size_t hint = kNoWay;
    return find(addr, hint);
  }
  /// find() that tries way `hint` first and leaves it at the line's way
  /// (kNoWay on a miss).
  MesiState* find(LineAddr addr, std::size_t& hint) {
    if (hint >= tags_.size() || tags_[hint] != addr || addr == kInvalidTag) {
      hint = find_way(set_index(addr) * ways_, addr);
      if (hint == kNoWay) return nullptr;
    }
    stamps_[hint] = ++clock_;
    return &states_[hint];
  }

  /// Looks a line up without touching LRU state (used by snoops, which must
  /// not perturb the owner's replacement order). A line is dropped only
  /// through invalidate(): writing kInvalid through peek_mutable() would
  /// leave its tag behind.
  const MesiState* peek(LineAddr addr) const;
  MesiState* peek_mutable(LineAddr addr);

  /// Inserts a line in the given state, evicting the set's LRU victim when
  /// every way is valid. Inserting an already-present line just updates its
  /// state and LRU stamp. Throws std::invalid_argument for kInvalidTag,
  /// which would be indistinguishable from an empty way.
  std::optional<Eviction> insert(LineAddr addr, MesiState state) {
    std::size_t hint = kNoWay;
    return insert(addr, state, hint);
  }
  /// insert() that tries way `hint` first and leaves it at the line's way.
  std::optional<Eviction> insert(LineAddr addr, MesiState state,
                                 std::size_t& hint);

  /// Drops a line. Returns the state it held, or nullopt if absent.
  std::optional<MesiState> invalidate(LineAddr addr);

  /// Empties the whole cache.
  void flush();

  std::size_t set_index(LineAddr addr) const { return set_of_(addr); }
  std::size_t num_sets() const { return set_of_.divisor(); }
  std::size_t ways() const { return ways_; }
  const CacheConfig& config() const { return config_; }

  /// Number of currently valid lines (test/debug aid; O(capacity)).
  std::size_t valid_lines() const;

  /// Visits every valid line. Templated on the visitor so the call inlines
  /// instead of going through a std::function thunk — the directory
  /// consistency check walks entire caches with it.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kInvalidTag) fn(CacheLine{tags_[i], states_[i]});
    }
  }

 private:
  /// Flat index of `addr`'s way in the set starting at `base`, or kNoWay.
  /// kInvalidTag never matches: the ways holding it are empty.
  std::size_t find_way(std::size_t base, LineAddr addr) const {
    if (addr == kInvalidTag) return kNoWay;
    const int w = scan_tags(tags_.data() + base, ways_, addr);
    return w < 0 ? kNoWay : base + static_cast<std::size_t>(w);
  }

  CacheConfig config_;
  std::size_t ways_ = 0;
  FastMod set_of_;
  std::uint64_t clock_ = 0;
  // Struct-of-arrays storage, num_sets() * ways_ entries each, set-major.
  // A way is valid iff its tag is not kInvalidTag iff its state is not
  // kInvalid; the set scan reads one dense uint64 span (scan.hpp).
  std::vector<std::uint64_t> tags_;    ///< line address, the only copy
  std::vector<std::uint64_t> stamps_;  ///< LRU stamp, larger == more recent
  std::vector<MesiState> states_;
};

}  // namespace tlbmap
