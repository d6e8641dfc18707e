// Tests for the declarative access-program interpreter.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/access_program.hpp"

namespace tlbmap {
namespace {

std::vector<TraceEvent> drain(ProgramStream& stream, std::size_t cap = 1u << 20) {
  std::vector<TraceEvent> events;
  for (std::size_t i = 0; i < cap; ++i) {
    TraceEvent ev = stream.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    events.push_back(ev);
  }
  return events;
}

Walk basic_walk(std::uint64_t count, Walk::Mix mix = Walk::Mix::kRead) {
  Walk w;
  w.base = 0x1000;
  w.length = 4096;
  w.elem_size = 8;
  w.mix = mix;
  w.count = count;
  return w;
}

TEST(AccessProgram, SequentialWalkVisitsInOrder) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(4)}, 1, false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].access.addr, 0x1000 + i * 8);
    EXPECT_EQ(events[i].access.type, AccessType::kRead);
  }
}

TEST(AccessProgram, EndIsSticky) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(1)}, 1, false});
  ProgramStream s(prog, 1);
  drain(s);
  EXPECT_EQ(s.next().kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(s.next().kind, TraceEvent::Kind::kEnd);
}

TEST(AccessProgram, StridedWalk) {
  AccessProgram prog;
  Walk w = basic_walk(4);
  w.stride = 8;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].access.addr, 0x1000 + 64);
  EXPECT_EQ(events[3].access.addr, 0x1000 + 192);
}

TEST(AccessProgram, StrideWrapsAroundRegion) {
  AccessProgram prog;
  Walk w = basic_walk(3);
  w.stride = 300;  // 512 elements in region; wraps on the second step
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].access.addr, 0x1000 + 300 * 8);
  EXPECT_EQ(events[2].access.addr, 0x1000 + ((600 % 512) * 8));
}

TEST(AccessProgram, NegativeStrideWraps) {
  AccessProgram prog;
  Walk w = basic_walk(2);
  w.stride = -1;
  w.start_elem = 0;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].access.addr, 0x1000u);
  EXPECT_EQ(events[1].access.addr, 0x1000 + 511 * 8);  // wrapped to the end
}

TEST(AccessProgram, ReadWriteEmitsPairs) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(2, Walk::Mix::kReadWrite)}, 1,
                              false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].access.type, AccessType::kRead);
  EXPECT_EQ(events[1].access.type, AccessType::kWrite);
  EXPECT_EQ(events[0].access.addr, events[1].access.addr);
  EXPECT_EQ(events[2].access.type, AccessType::kRead);
  EXPECT_EQ(events[3].access.type, AccessType::kWrite);
}

TEST(AccessProgram, WriteMix) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(3, Walk::Mix::kWrite)}, 1, false});
  ProgramStream s(prog, 1);
  for (const TraceEvent& ev : drain(s)) {
    EXPECT_EQ(ev.access.type, AccessType::kWrite);
  }
}

TEST(AccessProgram, RandomWalkStaysInRegion) {
  AccessProgram prog;
  Walk w = basic_walk(500);
  w.pattern = Walk::Pattern::kRandom;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 99);
  for (const TraceEvent& ev : drain(s)) {
    EXPECT_GE(ev.access.addr, 0x1000u);
    EXPECT_LT(ev.access.addr, 0x1000u + 4096u);
    EXPECT_EQ(ev.access.addr % 8, 0u);
  }
}

TEST(AccessProgram, RandomWalkSeedDeterminism) {
  AccessProgram prog;
  Walk w = basic_walk(100);
  w.pattern = Walk::Pattern::kRandom;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s1(prog, 7), s2(prog, 7), s3(prog, 8);
  const auto e1 = drain(s1), e2 = drain(s2), e3 = drain(s3);
  ASSERT_EQ(e1.size(), e2.size());
  bool any_diff_same_seed = false, any_diff_other_seed = false;
  for (std::size_t i = 0; i < e1.size(); ++i) {
    any_diff_same_seed |= e1[i].access.addr != e2[i].access.addr;
    any_diff_other_seed |= e1[i].access.addr != e3[i].access.addr;
  }
  EXPECT_FALSE(any_diff_same_seed);
  EXPECT_TRUE(any_diff_other_seed);
}

TEST(AccessProgram, BarrierAfterPhase) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(2)}, 1, true});
  prog.phases.push_back(Phase{{basic_walk(1)}, 1, true});
  ProgramStream s(prog, 1);
  std::vector<TraceEvent::Kind> kinds;
  for (;;) {
    const TraceEvent ev = s.next();
    kinds.push_back(ev.kind);
    if (ev.kind == TraceEvent::Kind::kEnd) break;
  }
  using K = TraceEvent::Kind;
  EXPECT_EQ(kinds, (std::vector<K>{K::kAccess, K::kAccess, K::kBarrier,
                                   K::kAccess, K::kBarrier, K::kEnd}));
}

TEST(AccessProgram, PhaseRepeatEmitsOneBarrier) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(1)}, 3, true});
  ProgramStream s(prog, 1);
  int accesses = 0, barriers = 0;
  for (;;) {
    const TraceEvent ev = s.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++accesses;
    if (ev.kind == TraceEvent::Kind::kBarrier) ++barriers;
  }
  EXPECT_EQ(accesses, 3);
  EXPECT_EQ(barriers, 1);  // after all repeats, not after each
}

TEST(AccessProgram, IterationsRepeatWholeProgram) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(2)}, 1, true});
  prog.iterations = 3;
  ProgramStream s(prog, 1);
  int accesses = 0, barriers = 0;
  for (;;) {
    const TraceEvent ev = s.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++accesses;
    if (ev.kind == TraceEvent::Kind::kBarrier) ++barriers;
  }
  EXPECT_EQ(accesses, 6);
  EXPECT_EQ(barriers, 3);
}

TEST(AccessProgram, TotalsMatchStream) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(5, Walk::Mix::kReadWrite),
                               basic_walk(3)},
                              2, true});
  prog.phases.push_back(Phase{{basic_walk(4, Walk::Mix::kWrite)}, 1, false});
  prog.iterations = 2;
  ProgramStream s(prog, 1);
  std::uint64_t accesses = 0, barriers = 0;
  for (;;) {
    const TraceEvent ev = s.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++accesses;
    if (ev.kind == TraceEvent::Kind::kBarrier) ++barriers;
  }
  EXPECT_EQ(accesses, prog.total_accesses());
  EXPECT_EQ(barriers, prog.total_barriers());
}

TEST(AccessProgram, EmptyProgramEndsImmediately) {
  AccessProgram prog;
  ProgramStream s(prog, 1);
  EXPECT_EQ(s.next().kind, TraceEvent::Kind::kEnd);
}

TEST(AccessProgram, EmptyPhaseStillEmitsBarrier) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{}, 1, true});
  ProgramStream s(prog, 1);
  EXPECT_EQ(s.next().kind, TraceEvent::Kind::kBarrier);
  EXPECT_EQ(s.next().kind, TraceEvent::Kind::kEnd);
}

TEST(AccessProgram, GapJitterBoundedAndSeeded) {
  AccessProgram prog;
  Walk w = basic_walk(200);
  w.compute_gap = 5;
  w.gap_jitter = 3;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 11);
  std::set<std::uint32_t> gaps;
  for (const TraceEvent& ev : drain(s)) {
    EXPECT_GE(ev.access.compute_gap, 5u);
    EXPECT_LE(ev.access.compute_gap, 8u);
    gaps.insert(ev.access.compute_gap);
  }
  EXPECT_GT(gaps.size(), 1u);  // jitter actually varies
}

TEST(ProgramStream, MaxJitterDoesNotTrap) {
  // gap_jitter + 1 overflows 32 bits; the draw must still be uniform over
  // the whole [0, UINT32_MAX] range rather than a remainder by zero.
  AccessProgram prog;
  Walk w = basic_walk(512);
  w.gap_jitter = UINT32_MAX;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 3);
  const auto events = drain(s);
  ASSERT_EQ(events.size(), 512u);
  std::uint32_t lo = UINT32_MAX, hi = 0;
  for (const TraceEvent& ev : events) {
    lo = std::min(lo, ev.access.compute_gap);
    hi = std::max(hi, ev.access.compute_gap);
  }
  EXPECT_LT(lo, UINT32_MAX / 4);
  EXPECT_GT(hi, UINT32_MAX / 4 * 3);
}

TEST(AccessProgram, ZeroCountWalkSkipped) {
  AccessProgram prog;
  prog.phases.push_back(Phase{{basic_walk(0), basic_walk(2)}, 1, false});
  ProgramStream s(prog, 1);
  EXPECT_EQ(drain(s).size(), 2u);
}

TEST(AccessProgram, StartElemOffsetsWalk) {
  AccessProgram prog;
  Walk w = basic_walk(2);
  w.start_elem = 10;
  prog.phases.push_back(Phase{{w}, 1, false});
  ProgramStream s(prog, 1);
  const auto events = drain(s);
  EXPECT_EQ(events[0].access.addr, 0x1000 + 10 * 8);
  EXPECT_EQ(events[1].access.addr, 0x1000 + 11 * 8);
}

}  // namespace
}  // namespace tlbmap
