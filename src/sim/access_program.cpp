#include "sim/access_program.hpp"

#include <algorithm>
#include <utility>

namespace tlbmap {

std::uint64_t AccessProgram::total_accesses() const {
  std::uint64_t per_iter = 0;
  for (const Phase& p : phases) {
    std::uint64_t per_rep = 0;
    for (const Walk& w : p.walks) per_rep += w.accesses();
    per_iter += per_rep * p.repeat;
  }
  return per_iter * iterations;
}

std::uint64_t AccessProgram::total_barriers() const {
  std::uint64_t per_iter = 0;
  for (const Phase& p : phases) {
    if (p.barrier_after) ++per_iter;
  }
  return per_iter * iterations;
}

ProgramStream::ProgramStream(AccessProgram program, std::uint64_t seed)
    : program_(std::move(program)), rng_(seed) {
  for (const Phase& phase : program_.phases) {
    phase_plans_.push_back(plans_.size());
    for (const Walk& walk : phase.walks) {
      // Empty regions are skipped by position_on_walk; 1 keeps FastMod valid.
      const std::uint64_t n = std::max<std::uint64_t>(walk.num_elems(), 1);
      std::int64_t step = walk.stride % static_cast<std::int64_t>(n);
      if (step < 0) step += static_cast<std::int64_t>(n);
      plans_.push_back(WalkPlan{FastMod(n),
                                FastMod(std::uint64_t{walk.gap_jitter} + 1),
                                static_cast<std::uint64_t>(step)});
    }
  }
}

bool ProgramStream::position_on_walk() {
  for (;;) {
    if (iter_ >= program_.iterations) {
      finished_ = true;
      return false;
    }
    const auto& phases = program_.phases;
    if (phase_ >= phases.size()) {
      phase_ = 0;
      phase_rep_ = 0;
      ++iter_;
      continue;
    }
    const Phase& phase = phases[phase_];
    if (phase_rep_ >= phase.repeat) {
      if (phase.barrier_after && !barrier_pending_) {
        // Emit exactly one barrier when the phase (all repeats) completes.
        barrier_pending_ = true;
        return false;
      }
      barrier_pending_ = false;
      ++phase_;
      phase_rep_ = 0;
      continue;
    }
    if (walk_ >= phase.walks.size()) {
      walk_ = 0;
      elem_index_ = 0;
      ++phase_rep_;
      continue;
    }
    const Walk& walk = phase.walks[walk_];
    if (elem_index_ >= walk.count || walk.num_elems() == 0) {
      ++walk_;
      elem_index_ = 0;
      continue;
    }
    return true;
  }
}

std::size_t ProgramStream::emit_segment(TraceEvent* out, std::size_t room) {
  const Walk& walk = program_.phases[phase_].walks[walk_];
  const WalkPlan& plan = plans_[phase_plans_[phase_] + walk_];
  const std::uint64_t n = walk.num_elems();
  const bool rmw = walk.mix == Walk::Mix::kReadWrite;
  const bool random = walk.pattern == Walk::Pattern::kRandom;
  const bool jitter = walk.gap_jitter > 0;
  const AccessType type =
      walk.mix == Walk::Mix::kWrite ? AccessType::kWrite : AccessType::kRead;
  // An odd room ends on a read whose write stays pending.
  const std::uint64_t elems =
      std::min<std::uint64_t>(walk.count - elem_index_,
                              rmw ? (room + 1) / 2 : room);

  std::uint64_t cursor = 0;
  if (!random) {
    const std::int64_t signed_elem =
        static_cast<std::int64_t>(walk.start_elem) +
        static_cast<std::int64_t>(elem_index_) * walk.stride;
    // Euclidean modulo so negative strides wrap into the region.
    std::int64_t m = signed_elem % static_cast<std::int64_t>(n);
    if (m < 0) m += static_cast<std::int64_t>(n);
    cursor = static_cast<std::uint64_t>(m);
  }

  TraceEvent* o = out;
  TraceEvent* const end = out + room;
  for (std::uint64_t i = 0; i < elems; ++i) {
    std::uint64_t elem;
    if (random) {
      elem = plan.elems(rng_());
    } else {
      elem = cursor;
      cursor += plan.step;
      if (cursor >= n) cursor -= n;
    }
    std::uint32_t gap = walk.compute_gap;
    if (jitter) gap += static_cast<std::uint32_t>(plan.jitter(rng_()));
    const VirtAddr addr = walk.base + elem * walk.elem_size;
    *o++ = TraceEvent::make_access(addr, type, gap);
    if (rmw) {
      if (o == end) {
        write_pending_ = true;
        pending_addr_ = addr;
        break;
      }
      *o++ = TraceEvent::make_access(addr, AccessType::kWrite, 0);
    }
  }
  elem_index_ += elems;
  return static_cast<std::size_t>(o - out);
}

std::size_t ProgramStream::fill(std::span<TraceEvent> out) {
  TraceEvent* const first = out.data();
  TraceEvent* const last = first + out.size();
  TraceEvent* o = first;
  if (finished_) {
    *o = TraceEvent::make_end();
    return 1;
  }
  if (write_pending_) {
    write_pending_ = false;
    *o++ = TraceEvent::make_access(pending_addr_, AccessType::kWrite, 0);
  }
  while (o != last) {
    if (!position_on_walk()) {
      if (barrier_pending_) {
        *o++ = TraceEvent::make_barrier();
        continue;
      }
      *o++ = TraceEvent::make_end();
      break;
    }
    o += emit_segment(o, static_cast<std::size_t>(last - o));
  }
  return static_cast<std::size_t>(o - first);
}

}  // namespace tlbmap
