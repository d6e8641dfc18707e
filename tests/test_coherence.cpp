// Unit tests for the MESI coherence domain: state transitions, snoop and
// invalidation counting, writebacks, inclusive line drops, and the
// intra/inter-socket traffic split. The line-occupancy directory is also
// checked op by op against the literal broadcast walk
// (ReferenceBroadcastDomain) from 2 to 256 L2s.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference_coherence.hpp"
#include "sim/coherence.hpp"

namespace tlbmap {
namespace {

// 4 single-core L2s: L2s {0,1} on socket 0, {2,3} on socket 1.
MachineConfig four_l2_config() {
  MachineConfig c;
  c.num_sockets = 2;
  c.cores_per_socket = 2;
  c.cores_per_l2 = 1;
  c.l1 = CacheConfig{512, 64, 2, 2};
  c.l2 = CacheConfig{4096, 64, 4, 8};
  return c;
}

/// Runs `body(domain, label)` on a CoherenceDomain and on the reference
/// broadcast walk, each built fresh for `cfg`.
template <typename Body>
void on_both_domains(const MachineConfig& cfg, Body&& body) {
  Topology topology(cfg);
  Interconnect interconnect(topology, cfg.interconnect);
  {
    CoherenceDomain domain(cfg, topology, interconnect);
    body(domain, "directory");
  }
  {
    ReferenceBroadcastDomain domain(cfg, topology, interconnect);
    body(domain, "broadcast");
  }
}

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : config_(four_l2_config()),
        topology_(config_),
        interconnect_(topology_, config_.interconnect),
        domain_(config_, topology_, interconnect_) {}

  MesiState state_in(L2Id l2, LineAddr line) {
    const MesiState* held = domain_.l2(l2).peek(line);
    return held == nullptr ? MesiState::kInvalid : *held;
  }

  MachineConfig config_;
  Topology topology_;
  Interconnect interconnect_;
  CoherenceDomain domain_;
  MachineStats stats_;
};

TEST_F(CoherenceTest, ColdReadFetchesExclusive) {
  const Cycles lat = domain_.read(0, 10, stats_);
  EXPECT_EQ(state_in(0, 10), MesiState::kExclusive);
  EXPECT_EQ(stats_.l2_misses, 1u);
  EXPECT_EQ(stats_.memory_fetches, 1u);
  EXPECT_EQ(stats_.snoop_transactions, 0u);
  EXPECT_EQ(lat, config_.l2.latency + config_.interconnect.memory_latency);
}

TEST_F(CoherenceTest, ReadHitIsCheap) {
  domain_.read(0, 10, stats_);
  stats_ = {};
  const Cycles lat = domain_.read(0, 10, stats_);
  EXPECT_EQ(stats_.l2_hits, 1u);
  EXPECT_EQ(stats_.l2_misses, 0u);
  EXPECT_EQ(lat, config_.l2.latency);
}

TEST_F(CoherenceTest, RemoteReadOfExclusiveIsSnoopToShared) {
  domain_.read(0, 10, stats_);
  stats_ = {};
  domain_.read(1, 10, stats_);
  EXPECT_EQ(stats_.snoop_transactions, 1u);
  EXPECT_EQ(stats_.memory_fetches, 0u);
  EXPECT_EQ(state_in(0, 10), MesiState::kShared);
  EXPECT_EQ(state_in(1, 10), MesiState::kShared);
}

TEST_F(CoherenceTest, RemoteReadOfModifiedWritesBack) {
  domain_.write(0, 10, stats_);
  ASSERT_EQ(state_in(0, 10), MesiState::kModified);
  stats_ = {};
  domain_.read(1, 10, stats_);
  EXPECT_EQ(stats_.snoop_transactions, 1u);
  EXPECT_EQ(stats_.writebacks, 1u);
  EXPECT_EQ(state_in(0, 10), MesiState::kShared);
  EXPECT_EQ(state_in(1, 10), MesiState::kShared);
}

TEST_F(CoherenceTest, WriteMissFetchesModified) {
  domain_.write(0, 10, stats_);
  EXPECT_EQ(state_in(0, 10), MesiState::kModified);
  EXPECT_EQ(stats_.memory_fetches, 1u);
  EXPECT_EQ(stats_.invalidations, 0u);
}

TEST_F(CoherenceTest, WriteHitExclusiveSilentUpgrade) {
  domain_.read(0, 10, stats_);
  stats_ = {};
  const Cycles lat = domain_.write(0, 10, stats_);
  EXPECT_EQ(state_in(0, 10), MesiState::kModified);
  EXPECT_EQ(stats_.invalidations, 0u);
  EXPECT_EQ(stats_.intra_socket_messages + stats_.inter_socket_messages, 0u);
  EXPECT_EQ(lat, 1u);
}

TEST_F(CoherenceTest, WriteToSharedInvalidatesAllRemoteCopies) {
  domain_.read(0, 10, stats_);
  domain_.read(1, 10, stats_);
  domain_.read(2, 10, stats_);
  stats_ = {};
  domain_.write(1, 10, stats_);
  EXPECT_EQ(stats_.invalidations, 2u);  // copies in L2 0 and 2
  EXPECT_EQ(state_in(0, 10), MesiState::kInvalid);
  EXPECT_EQ(state_in(2, 10), MesiState::kInvalid);
  EXPECT_EQ(state_in(1, 10), MesiState::kModified);
}

TEST_F(CoherenceTest, WriteMissToRemoteModifiedInvalidatesAndTransfers) {
  domain_.write(0, 10, stats_);
  stats_ = {};
  domain_.write(2, 10, stats_);
  EXPECT_EQ(stats_.invalidations, 1u);
  EXPECT_EQ(stats_.snoop_transactions, 1u);
  EXPECT_EQ(stats_.writebacks, 1u);
  EXPECT_EQ(state_in(0, 10), MesiState::kInvalid);
  EXPECT_EQ(state_in(2, 10), MesiState::kModified);
}

TEST_F(CoherenceTest, RepeatWritesByOwnerAreSilent) {
  domain_.write(0, 10, stats_);
  stats_ = {};
  for (int i = 0; i < 5; ++i) domain_.write(0, 10, stats_);
  EXPECT_EQ(stats_.invalidations, 0u);
  EXPECT_EQ(stats_.snoop_transactions, 0u);
  EXPECT_EQ(stats_.l2_hits, 5u);
}

TEST_F(CoherenceTest, IntraSocketTransferCheaperThanInter) {
  domain_.write(0, 10, stats_);
  MachineStats intra;
  const Cycles lat_intra = domain_.read(1, 10, intra);  // same socket
  domain_.write(0, 11, stats_);
  MachineStats inter;
  const Cycles lat_inter = domain_.read(2, 11, inter);  // cross socket
  EXPECT_LT(lat_intra, lat_inter);
}

TEST_F(CoherenceTest, NearestHolderPreferred) {
  // Line shared by L2 3 (remote socket) and L2 1 (same socket as reader 0):
  // the transfer must come from L2 1 and be intra-socket priced.
  domain_.read(3, 10, stats_);
  domain_.read(1, 10, stats_);
  stats_ = {};
  domain_.read(0, 10, stats_);
  EXPECT_EQ(stats_.snoop_transactions, 1u);
  // 3 probe messages always go out; the data transfer adds one more
  // intra-socket message (from L2 1).
  EXPECT_EQ(stats_.intra_socket_messages, 2u);  // probe to 1 + transfer
  EXPECT_EQ(stats_.inter_socket_messages, 2u);  // probes to 2 and 3
}

TEST_F(CoherenceTest, ProbeTrafficSplitBySocket) {
  stats_ = {};
  domain_.read(0, 99, stats_);  // cold miss: 3 probes, memory fetch
  EXPECT_EQ(stats_.intra_socket_messages, 1u);  // probe to L2 1
  EXPECT_EQ(stats_.inter_socket_messages, 2u);  // probes to L2 2, 3
}

TEST_F(CoherenceTest, EvictionOfModifiedWritesBack) {
  // L2: 4096 B, 64 B lines, 4 ways -> 16 sets; same set = addr % 16.
  domain_.write(0, 0, stats_);
  stats_ = {};
  for (LineAddr a = 16; a <= 64; a += 16) domain_.read(0, a, stats_);
  // Set 0 now had 5 lines inserted; the modified line 0 was LRU.
  EXPECT_EQ(stats_.writebacks, 1u);
  EXPECT_EQ(state_in(0, 0), MesiState::kInvalid);
}

TEST_F(CoherenceTest, LineDropCallbackFiresOnInvalidationAndEviction) {
  std::vector<std::pair<L2Id, LineAddr>> drops;
  domain_.set_line_drop_callback(
      [&](L2Id l2, LineAddr line) { drops.emplace_back(l2, line); });
  domain_.read(0, 10, stats_);
  domain_.write(1, 10, stats_);  // invalidates L2 0's copy
  ASSERT_FALSE(drops.empty());
  EXPECT_EQ(drops.back(), (std::pair<L2Id, LineAddr>{0, 10}));

  drops.clear();
  for (LineAddr a = 10 + 16; a <= 10 + 5 * 16; a += 16) {
    domain_.write(1, a, stats_);  // overflow set, evicting line 10
  }
  bool saw_eviction = false;
  for (const auto& [l2, line] : drops) {
    if (l2 == 1 && line == 10) saw_eviction = true;
  }
  EXPECT_TRUE(saw_eviction);
}

TEST_F(CoherenceTest, FlushDropsEverything) {
  domain_.write(0, 1, stats_);
  domain_.read(1, 2, stats_);
  domain_.flush();
  EXPECT_EQ(state_in(0, 1), MesiState::kInvalid);
  EXPECT_EQ(state_in(1, 2), MesiState::kInvalid);
}

TEST_F(CoherenceTest, CounterConsistency) {
  // Random-ish workload; structural invariants must hold.
  std::uint64_t ops = 0;
  for (LineAddr a = 0; a < 200; ++a) {
    domain_.read(static_cast<L2Id>(a % 4), a % 37, stats_);
    domain_.write(static_cast<L2Id>((a + 1) % 4), a % 37, stats_);
    ops += 2;
  }
  EXPECT_EQ(stats_.l2_accesses, ops);
  EXPECT_EQ(stats_.l2_hits + stats_.l2_misses, ops);
  EXPECT_LE(stats_.memory_fetches, stats_.l2_misses);
  EXPECT_LE(stats_.snoop_transactions, stats_.l2_misses);
}

TEST_F(CoherenceTest, SharedReadersOnSameLineEachSnoopOnce) {
  domain_.write(0, 10, stats_);
  stats_ = {};
  domain_.read(1, 10, stats_);
  domain_.read(2, 10, stats_);
  domain_.read(3, 10, stats_);
  EXPECT_EQ(stats_.snoop_transactions, 3u);
  stats_ = {};
  // Re-reads hit locally: no more transfers.
  domain_.read(1, 10, stats_);
  domain_.read(2, 10, stats_);
  EXPECT_EQ(stats_.snoop_transactions, 0u);
  EXPECT_EQ(stats_.l2_hits, 2u);
}

TEST_F(CoherenceTest, UpgradeLatencyIsWorstAcknowledgement) {
  domain_.read(0, 10, stats_);
  domain_.read(2, 10, stats_);  // cross-socket sharer
  stats_ = {};
  const Cycles lat = domain_.write(0, 10, stats_);
  EXPECT_EQ(lat, 1 + config_.interconnect.invalidate_inter_socket);
}

// ------------------------------------------------ line-occupancy directory

TEST_F(CoherenceTest, DirectoryTracksHoldersIncrementally) {
  EXPECT_EQ(domain_.directory_lines(), 0u);
  EXPECT_EQ(domain_.directory_cells(), 0u);  // nothing allocated up front

  domain_.read(0, 10, stats_);
  EXPECT_EQ(domain_.directory_lines(), 1u);
  EXPECT_EQ(domain_.directory_cells(), 16u);  // bit_ceil(10 + 1)
  domain_.read(1, 10, stats_);  // second holder, same line
  EXPECT_EQ(domain_.directory_lines(), 1u);
  domain_.read(2, 20, stats_);
  EXPECT_EQ(domain_.directory_lines(), 2u);
  EXPECT_EQ(domain_.directory_cells(), 32u);
  EXPECT_TRUE(domain_.directory_consistent());

  // An RFO by L2 3 strips lines 10's other holders; the mask must follow.
  domain_.write(3, 10, stats_);
  EXPECT_TRUE(domain_.directory_consistent());

  domain_.flush();
  EXPECT_EQ(domain_.directory_lines(), 0u);
  EXPECT_EQ(domain_.directory_cells(), 32u);  // flush keeps the array
  EXPECT_TRUE(domain_.directory_consistent());
}

// A line the dense directory cannot index is refused before anything
// changes: no counter, way hint, cache or directory entry moves.
TEST_F(CoherenceTest, RefusesLinesTheDirectoryCannotIndex) {
  domain_.read(0, 10, stats_);
  domain_.write(2, 20, stats_);
  const MachineStats before = stats_;
  std::size_t way = Cache::kNoWay;
  for (const LineAddr line : {CoherenceDomain::kMaxLines,
                              CoherenceDomain::kMaxLines + 10,
                              LineAddr{1} << 40}) {
    EXPECT_THROW(domain_.read(0, line, stats_), std::length_error) << line;
    EXPECT_THROW(domain_.write(1, line, 300, way, stats_), std::length_error)
        << line;
    EXPECT_EQ(domain_.l2(0).peek(line), nullptr) << line;
    EXPECT_EQ(domain_.l2(1).peek(line), nullptr) << line;
  }
  EXPECT_EQ(stats_, before);
  EXPECT_EQ(way, Cache::kNoWay);
  EXPECT_EQ(domain_.directory_lines(), 2u);
  EXPECT_EQ(domain_.directory_cells(), 32u);
  EXPECT_EQ(domain_.directory_stats().probes, 2u);
  EXPECT_TRUE(domain_.directory_consistent());
}

TEST_F(CoherenceTest, DirectoryConsistentThroughEvictionPressure) {
  // Hammer one L2's sets past capacity so inserts evict constantly, then
  // pull lines across sockets; the masks must track every movement.
  for (LineAddr a = 0; a < 400; ++a) {
    domain_.read(static_cast<L2Id>(a % 4), a % 61, stats_);
    domain_.write(static_cast<L2Id>((a + 2) % 4), a % 61, stats_);
    if (a % 37 == 0) {
      ASSERT_TRUE(domain_.directory_consistent()) << "at op " << a;
    }
  }
  EXPECT_TRUE(domain_.directory_consistent());
  EXPECT_GT(domain_.directory_stats().probes, 0u);
  EXPECT_GT(domain_.directory_stats().holder_visits, 0u);
}

// Write miss with several sharers: the nearest holder sources the data (one
// snoop transaction), every holder is invalidated, and — since the probe
// names a live holder — the data never comes from memory. This pins the
// intended RFO accounting for both probe resolutions.
TEST_F(CoherenceTest, MultiHolderRfoAccountingMatchesBroadcast) {
  const MachineConfig cfg = four_l2_config();
  on_both_domains(cfg, [&](auto& domain, const char* label) {
    MachineStats stats;
    domain.read(0, 10, stats);
    domain.read(1, 10, stats);
    domain.read(2, 10, stats);  // three sharers across both sockets
    stats = {};
    const Cycles lat = domain.write(3, 10, stats);

    EXPECT_EQ(stats.invalidations, 3u) << label;
    EXPECT_EQ(stats.snoop_transactions, 1u) << label;
    EXPECT_EQ(stats.memory_fetches, 0u) << label;
    EXPECT_EQ(stats.writebacks, 0u) << label;
    // Source is L2 2 (same socket as 3): transfer is intra-socket, but the
    // stall is bounded by the slowest cross-socket invalidation.
    EXPECT_EQ(lat, 1 + cfg.interconnect.invalidate_inter_socket) << label;
    const MesiState* held = domain.l2(3).peek(10);
    ASSERT_NE(held, nullptr) << label;
    EXPECT_EQ(*held, MesiState::kModified) << label;
    for (L2Id other : {0, 1, 2}) {
      EXPECT_EQ(domain.l2(other).peek(10), nullptr)
          << "L2 " << other << " " << label;
    }
  });
}

// A dirty sharer hit by an RFO must write back before dying, under both
// probe resolutions.
TEST_F(CoherenceTest, RfoOverModifiedLineWritesBack) {
  on_both_domains(four_l2_config(), [](auto& domain, const char* label) {
    MachineStats stats;
    domain.write(0, 10, stats);  // Modified in L2 0
    stats = {};
    domain.write(2, 10, stats);  // cross-socket RFO
    EXPECT_EQ(stats.writebacks, 1u) << label;
    EXPECT_EQ(stats.invalidations, 1u) << label;
    EXPECT_EQ(stats.snoop_transactions, 1u) << label;
    EXPECT_EQ(stats.memory_fetches, 0u) << label;
  });
}

// Probe accounting parity: the directory must bill the same broadcast
// messages as the walked probe even when no one holds the line.
TEST_F(CoherenceTest, DirectoryBillsFullProbeBroadcast) {
  stats_ = {};
  domain_.read(0, 99, stats_);  // cold miss, no holders anywhere
  // 1 intra-socket peer (L2 1) + 2 cross-socket peers (L2s 2, 3).
  EXPECT_EQ(stats_.intra_socket_messages, 1u);
  EXPECT_EQ(stats_.inter_socket_messages, 2u);
  EXPECT_EQ(domain_.directory_stats().probes, 1u);
  EXPECT_EQ(domain_.directory_stats().holder_hits, 0u);
}

// ----------------------------------------------------------- holder cells

std::vector<L2Id> holders_of(const HolderPool& pool, HolderCell cell) {
  std::vector<L2Id> seen;
  pool.visit(cell, [&](L2Id h) {
    seen.push_back(h);
    return false;
  });
  return seen;
}

// Inline up to four holders, pooled from the fifth, inline again at four;
// ascending either way, with ids on both sides of each row word boundary.
TEST(HolderCellTest, VisitsAscendingInlineAndPooled) {
  HolderPool pool(/*num_l2=*/200);
  HolderCell cell = HolderPool::kEmptyCell;
  for (const L2Id id : {191, 3, 64, 67}) EXPECT_FALSE(pool.add(cell, id));
  EXPECT_FALSE(pool.add(cell, 64));  // already a holder
  EXPECT_FALSE(HolderPool::pooled(cell));
  EXPECT_EQ(holders_of(pool, cell), (std::vector<L2Id>{3, 64, 67, 191}));

  EXPECT_TRUE(pool.add(cell, 130));  // the fifth holder takes a row
  EXPECT_TRUE(HolderPool::pooled(cell));
  EXPECT_TRUE(pool.well_formed(cell));
  EXPECT_EQ(pool.rows_in_use(), 1u);
  EXPECT_EQ(holders_of(pool, cell), (std::vector<L2Id>{3, 64, 67, 130, 191}));
  std::vector<L2Id> until_stop;
  pool.visit(cell, [&](L2Id h) {
    until_stop.push_back(h);
    return h >= 67;
  });
  EXPECT_EQ(until_stop, (std::vector<L2Id>{3, 64, 67}));

  EXPECT_FALSE(pool.remove(cell, 5));  // not a holder
  EXPECT_FALSE(pool.remove(cell, 64));
  EXPECT_FALSE(HolderPool::pooled(cell));
  EXPECT_EQ(pool.rows_in_use(), 0u);
  EXPECT_EQ(holders_of(pool, cell), (std::vector<L2Id>{3, 67, 130, 191}));
  for (const L2Id id : {3, 191, 67}) EXPECT_FALSE(pool.remove(cell, id));
  EXPECT_EQ(holders_of(pool, cell), (std::vector<L2Id>{130}));
  EXPECT_TRUE(pool.remove(cell, 130));
  EXPECT_EQ(cell, HolderPool::kEmptyCell);
}

TEST(HolderCellTest, CheckedL2IdRejectsOutOfRangeBits) {
  EXPECT_EQ(checked_l2id(63, 64), 63);
  EXPECT_THROW(checked_l2id(64, 64), std::logic_error);
  EXPECT_THROW(checked_l2id(1000, 256), std::logic_error);
}

// ---------------------------------------------------- directory vs a model

// Reads and writes from 200 L2s on 300 lines scattered over [0, 2^20),
// against std::unordered_map<LineAddr, std::set<L2Id>> kept from the
// protocol alone: a read adds the reader, a write leaves the writer the
// only holder and every line drop removes its L2. A miss on a line held
// elsewhere must be a snoop, any other miss a memory fetch. Reads stop at
// 8 holders (a ninth L2 writes instead), so cells go pooled and come back
// inline. The ops pick lines in ascending order through a widening window,
// so the array grows again and again while earlier lines hold pooled cells.
TEST(CoherenceDirectoryTest, MatchesHolderSetModelOnScatteredLines) {
  constexpr int kL2s = 200;
  MachineConfig cfg = four_l2_config();
  cfg.num_sockets = kL2s / 8;
  cfg.cores_per_socket = 8;
  cfg.l2 = CacheConfig{1024, 64, 4, 8};  // 16 lines: evictions all the time
  const Topology topology(cfg);
  ASSERT_EQ(topology.num_l2(), kL2s);
  Interconnect interconnect(topology, cfg.interconnect);
  CoherenceDomain domain(cfg, topology, interconnect);

  std::unordered_map<LineAddr, std::set<L2Id>> model;
  // Pooled lines an eviction (of a line other than the op's) took back to
  // four holders; a write's invalidations reset its line's cell instead.
  std::uint64_t returns = 0;
  LineAddr op_line = 0;
  domain.set_line_drop_callback([&](L2Id l2, LineAddr line) {
    const auto it = model.find(line);
    ASSERT_TRUE(it != model.end() && it->second.contains(l2))
        << "L2 " << l2 << " dropped line " << line << " it did not hold";
    returns += line != op_line && it->second.size() == 5 ? 1 : 0;
    it->second.erase(l2);
    if (it->second.empty()) model.erase(it);
  });

  std::mt19937_64 line_rng(0x11e5);
  std::vector<LineAddr> lines(300);
  for (LineAddr& line : lines) line = line_rng() % (LineAddr{1} << 20);
  std::sort(lines.begin(), lines.end());

  std::mt19937_64 rng(0x5eed);
  MachineStats stats;
  std::uint64_t growths_under_pooled = 0;
  for (int op = 0; op < 30000; ++op) {
    const std::size_t window =
        std::min(lines.size(), static_cast<std::size_t>(1 + op / 64));
    const LineAddr line = lines[rng() % window];
    const auto me = static_cast<L2Id>(rng() % kL2s);
    op_line = line;
    const auto it = model.find(line);
    const std::set<L2Id> holders =
        it == model.end() ? std::set<L2Id>{} : it->second;
    const bool hit = holders.contains(me);
    const bool write = rng() % 8 == 0 || (!hit && holders.size() >= 8);
    const bool pooled_live = std::any_of(
        model.begin(), model.end(), [](const auto& m) {
          return m.second.size() > HolderPool::kLanes;
        });
    const MachineStats before = stats;
    const std::size_t cells = domain.directory_cells();
    if (write) {
      domain.write(me, line, stats);
      model[line] = {me};
    } else {
      domain.read(me, line, stats);
      model[line].insert(me);
    }
    ASSERT_EQ(stats.l2_misses - before.l2_misses, hit ? 0u : 1u) << "op " << op;
    ASSERT_EQ(stats.snoop_transactions - before.snoop_transactions,
              !hit && !holders.empty() ? 1u : 0u)
        << "op " << op << " line " << line;
    ASSERT_EQ(stats.memory_fetches - before.memory_fetches,
              !hit && holders.empty() ? 1u : 0u)
        << "op " << op << " line " << line;
    for (L2Id id = 0; id < kL2s; ++id) {
      ASSERT_EQ(domain.l2(id).peek(line) != nullptr,
                model[line].contains(id))
          << "op " << op << " L2 " << id << " line " << line;
    }
    if (domain.directory_cells() != cells && pooled_live) {
      ++growths_under_pooled;
    }
    if (op % 1000 == 0) {
      ASSERT_TRUE(domain.directory_consistent()) << "op " << op;
      ASSERT_EQ(domain.directory_lines(), model.size()) << "op " << op;
    }
  }
  EXPECT_TRUE(domain.directory_consistent());
  EXPECT_EQ(domain.directory_lines(), model.size());
  EXPECT_EQ(domain.directory_cells(), std::bit_ceil(lines.back() + 1));
  EXPECT_GE(growths_under_pooled, 5u);
  EXPECT_GT(domain.directory_stats().pooled_rows, 100u);
  EXPECT_GT(returns, 100u);
  for (const LineAddr line : lines) {
    const auto it = model.find(line);
    for (L2Id id = 0; id < kL2s; ++id) {
      ASSERT_EQ(domain.l2(id).peek(line) != nullptr,
                it != model.end() && it->second.contains(id))
          << "L2 " << id << " line " << line;
    }
  }
}

// Real coherence traffic at L2 counts on both sides of each 64-bit row
// word boundary: the holder cells, the pooled rows and the array must stay
// consistent with the caches, and identical to the broadcast walk.
TEST(CoherenceDirectoryTest, ConsistentAcrossWordBoundaries) {
  for (const int num_l2 : {63, 64, 65, 128, 256}) {
    MachineConfig cfg;
    cfg.num_sockets = num_l2;
    cfg.cores_per_socket = 1;
    cfg.cores_per_l2 = 1;
    if (num_l2 % 8 == 0) {  // group L2s into sockets where they divide
      cfg.num_sockets = num_l2 / 8;
      cfg.cores_per_socket = 8;
    }
    cfg.l1 = CacheConfig{512, 64, 2, 2};
    cfg.l2 = CacheConfig{4096, 64, 4, 8};
    Topology topo(cfg);
    ASSERT_EQ(topo.num_l2(), num_l2);
    Interconnect ic(topo, cfg.interconnect);
    CoherenceDomain dir(cfg, topo, ic);
    ReferenceBroadcastDomain bc(cfg, topo, ic);

    MachineStats dir_stats, bc_stats;
    std::mt19937_64 rng(static_cast<std::uint64_t>(num_l2));
    for (int op = 0; op < 6000; ++op) {
      // Bias toward the top L2 ids, where the last word starts.
      const L2Id me = static_cast<L2Id>(
          rng() % 2 == 0 ? rng() % static_cast<std::uint64_t>(num_l2)
                         : num_l2 - 1 - static_cast<int>(rng() % 3));
      const LineAddr line = rng() % 211;
      if (rng() % 3 == 0) {
        ASSERT_EQ(dir.write(me, line, dir_stats), bc.write(me, line, bc_stats))
            << num_l2 << " L2s, op " << op;
      } else {
        ASSERT_EQ(dir.read(me, line, dir_stats), bc.read(me, line, bc_stats))
            << num_l2 << " L2s, op " << op;
      }
      if (op % 1000 == 0) {
        ASSERT_TRUE(dir.directory_consistent()) << num_l2 << " op " << op;
      }
    }
    EXPECT_TRUE(dir.directory_consistent()) << num_l2;
    EXPECT_EQ(dir_stats, bc_stats) << num_l2;
    EXPECT_GT(dir.directory_stats().holder_hits, 0u) << num_l2;
    dir.flush();
    EXPECT_EQ(dir.directory_lines(), 0u) << num_l2;
    EXPECT_TRUE(dir.directory_consistent()) << num_l2;
  }
}

// --------------------------------------- beyond 64 L2s (multi-word holders)

// 128 single-core L2s across 16 sockets: holder ids reach word 1, which the
// old single-word directory could not represent (it silently fell back to
// the broadcast walk above 64 L2s).
MachineConfig l2_128_config() {
  MachineConfig c;
  c.num_sockets = 16;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 1;
  c.l1 = CacheConfig{512, 64, 2, 2};
  c.l2 = CacheConfig{4096, 64, 4, 8};
  return c;
}

TEST(ManycoreCoherenceTest, HoldersAboveBit64TrackAndInvalidate) {
  const MachineConfig cfg = l2_128_config();
  Topology topology(cfg);
  Interconnect interconnect(topology, cfg.interconnect);
  CoherenceDomain domain(cfg, topology, interconnect);
  MachineStats stats;

  domain.read(70, 10, stats);   // all three holders live in word 1
  domain.read(100, 10, stats);
  domain.read(127, 10, stats);
  EXPECT_TRUE(domain.directory_consistent());
  stats = {};
  domain.write(5, 10, stats);   // writer in word 0, victims in word 1
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.snoop_transactions, 1u);
  EXPECT_EQ(stats.memory_fetches, 0u);
  for (const L2Id other : {70, 100, 127}) {
    EXPECT_EQ(domain.l2(other).peek(10), nullptr) << "L2 " << other;
  }
  EXPECT_TRUE(domain.directory_consistent());
}

TEST(ManycoreCoherenceTest, NearestHolderTieBreakMatchesBroadcastAt128) {
  // Reader 65 (socket 8, L2s 64..71): holder 68 shares its socket and must
  // beat the globally lower-indexed holder 3.
  on_both_domains(l2_128_config(), [](auto& domain, const char* label) {
    MachineStats stats;
    domain.read(3, 10, stats);
    domain.read(68, 10, stats);
    stats = {};
    domain.read(65, 10, stats);
    EXPECT_EQ(stats.snoop_transactions, 1u) << label;
    // Probes: 7 intra-socket peers + 120 cross-socket peers, plus one
    // intra-socket transfer from the nearest holder (68).
    EXPECT_EQ(stats.intra_socket_messages, 8u) << label;
    EXPECT_EQ(stats.inter_socket_messages, 120u) << label;
  });
}

// Five readers give one line a pooled row; the upgrade that follows frees
// it. Repeated, the pool reuses its one row instead of allocating.
TEST(ManycoreCoherenceTest, PooledRowIsReusedAcrossUpgrades) {
  const MachineConfig cfg = l2_128_config();
  Topology topology(cfg);
  Interconnect interconnect(topology, cfg.interconnect);
  CoherenceDomain domain(cfg, topology, interconnect);
  MachineStats stats;
  for (int round = 0; round < 1000; ++round) {
    for (const L2Id reader : {0, 9, 70, 100, 127}) {
      domain.read(reader, 10, stats);
    }
    domain.write(70, 10, stats);
    ASSERT_EQ(domain.directory_pool_rows(), 1u) << "round " << round;
  }
  EXPECT_EQ(domain.directory_stats().pooled_rows, 1000u);
  EXPECT_EQ(domain.directory_lines(), 1u);
  EXPECT_TRUE(domain.directory_consistent());
}

// ------------------------------------------ directory vs broadcast walk

struct DomainCase {
  const char* name;
  MachineConfig machine;
  /// Lines from a scattered set instead of [0, 151); see below.
  bool scattered = false;
};

void PrintTo(const DomainCase& c, std::ostream* os) { *os << c.name; }

/// `sockets` sockets of `l2s_per_socket` single-core L2s, fully connected,
/// with the small caches of four_l2_config().
MachineConfig flat_config(int sockets, int l2s_per_socket) {
  MachineConfig c = four_l2_config();
  c.num_sockets = sockets;
  c.cores_per_socket = l2s_per_socket;
  return c;
}

class CoherenceReferenceDifferential
    : public ::testing::TestWithParam<DomainCase> {};

// Random reads and writes from random L2s over a small line space, so
// lines are shared, upgraded, stolen and evicted all the time. After every
// op the directory domain and the broadcast walk must agree on the
// latency, every counter and the ordered line drops; at the end, on every
// L2's contents. The directory domain is driven through one way hint per
// L2, as a core drives it, so hints go stale under steals and evictions.
// A scattered case draws 300 lines once from [0, 2^20) and picks them in
// ascending order through a widening window, so the directory array grows
// in the middle of the run, under live holders and evictions.
TEST_P(CoherenceReferenceDifferential, MatchesBroadcastWalkEveryOp) {
  const DomainCase& c = GetParam();
  const Topology topology(c.machine);
  Interconnect interconnect(topology, c.machine.interconnect);
  CoherenceDomain dir(c.machine, topology, interconnect);
  ReferenceBroadcastDomain ref(c.machine, topology, interconnect);
  using Drops = std::vector<std::pair<L2Id, LineAddr>>;
  Drops dir_drops, ref_drops;
  dir.set_line_drop_callback(
      [&](L2Id l2, LineAddr line) { dir_drops.emplace_back(l2, line); });
  ref.set_line_drop_callback(
      [&](L2Id l2, LineAddr line) { ref_drops.emplace_back(l2, line); });

  std::vector<LineAddr> lines(151);  // > 2x one L2's 64 lines
  for (LineAddr i = 0; i < lines.size(); ++i) lines[i] = i;
  if (c.scattered) {
    std::mt19937_64 line_rng(0x5ca7);
    lines.resize(300);
    for (LineAddr& line : lines) line = line_rng() % (LineAddr{1} << 20);
    std::sort(lines.begin(), lines.end());
  }
  const auto num_l2 = static_cast<std::uint64_t>(topology.num_l2());
  MachineStats dir_stats, ref_stats;
  std::vector<std::size_t> l2_ways(num_l2, Cache::kNoWay);
  std::uint64_t growths = 0;
  std::mt19937_64 rng(num_l2);
  for (int op = 0; op < 6000; ++op) {
    const auto me = static_cast<L2Id>(rng() % num_l2);
    const std::size_t window =
        c.scattered ? std::min(lines.size(), std::size_t{1} + op / 16)
                    : lines.size();
    const LineAddr line = lines[rng() % window];
    const Cycles memory = rng() % 2 == 0 ? 150 : 300;
    std::size_t& way = l2_ways[static_cast<std::size_t>(me)];
    const std::size_t cells = dir.directory_cells();
    Cycles dir_lat = 0, ref_lat = 0;
    if (rng() % 3 == 0) {
      dir_lat = dir.write(me, line, memory, way, dir_stats);
      ref_lat = ref.write(me, line, memory, ref_stats);
    } else {
      dir_lat = dir.read(me, line, memory, way, dir_stats);
      ref_lat = ref.read(me, line, memory, ref_stats);
    }
    growths += cells != 0 && dir.directory_cells() != cells ? 1 : 0;
    ASSERT_EQ(dir_lat, ref_lat) << c.name << " op " << op;
    ASSERT_EQ(dir_stats, ref_stats) << c.name << " op " << op;
    ASSERT_EQ(dir_drops, ref_drops) << c.name << " op " << op;
    dir_drops.clear();
    ref_drops.clear();
  }
  EXPECT_TRUE(dir.directory_consistent()) << c.name;
  EXPECT_GT(dir.directory_stats().holder_hits, 0u) << c.name;
  if (c.scattered) {
    EXPECT_GE(growths, 5u) << c.name;
    EXPECT_GT(dir_stats.writebacks, 0u) << c.name;
  }
  for (L2Id id = 0; id < topology.num_l2(); ++id) {
    for (const LineAddr line : lines) {
      const MesiState* a = dir.l2(id).peek(line);
      const MesiState* b = ref.l2(id).peek(line);
      ASSERT_EQ(a == nullptr, b == nullptr)
          << c.name << " L2 " << id << " line " << line;
      if (a != nullptr) {
        ASSERT_EQ(*a, *b) << c.name << " L2 " << id << " line " << line;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    L2Counts, CoherenceReferenceDifferential,
    ::testing::Values(DomainCase{"l2_2", flat_config(2, 1)},
                      DomainCase{"l2_4", four_l2_config()},
                      DomainCase{"l2_65", flat_config(65, 1)},
                      DomainCase{"l2_128", l2_128_config()},
                      DomainCase{"l2_256_mesh", MachineConfig::manycore()},
                      DomainCase{"l2_128_scattered", l2_128_config(), true}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tlbmap
