// Declarative per-thread access programs.
//
// The NPB-like workload generators describe each thread's memory behaviour
// as a small program — phases of array walks separated by barriers — and
// ProgramStream interprets it lazily into TraceEvents. This keeps the nine
// benchmark kernels compact, testable and deterministic per seed, while
// still producing realistic multi-million-access streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/fast_mod.hpp"
#include "sim/mt19937_64.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// One loop over a byte region.
struct Walk {
  enum class Pattern : std::uint8_t {
    kSequential,  ///< elements start_elem, start_elem+stride, ... (mod size)
    kRandom,      ///< uniform random elements of the region (seeded)
  };
  enum class Mix : std::uint8_t {
    kRead,       ///< each element is read
    kWrite,      ///< each element is written
    kReadWrite,  ///< each element is read then written (read-modify-write)
  };

  VirtAddr base = 0;            ///< byte address of the region
  std::uint64_t length = 0;     ///< region length in bytes
  std::uint32_t elem_size = 8;  ///< bytes per element
  Pattern pattern = Pattern::kSequential;
  Mix mix = Mix::kRead;
  std::uint64_t count = 0;      ///< elements visited
  std::uint64_t start_elem = 0;
  std::int64_t stride = 1;      ///< in elements; sequential pattern only
  std::uint32_t compute_gap = 0;  ///< cycles of compute before each access
  /// Uniform random extra compute per access in [0, gap_jitter] (any
  /// value, UINT32_MAX included); models run-to-run timing noise (the
  /// paper's standard-deviation experiments).
  std::uint32_t gap_jitter = 0;

  std::uint64_t num_elems() const { return length / elem_size; }
  /// Memory accesses this walk emits (kReadWrite emits two per element).
  std::uint64_t accesses() const {
    return count * (mix == Mix::kReadWrite ? 2 : 1);
  }
};

/// A group of walks executed in order, optionally repeated, with an optional
/// trailing barrier (an OpenMP parallel-for join).
struct Phase {
  std::vector<Walk> walks;
  std::uint32_t repeat = 1;
  bool barrier_after = true;
};

/// The whole per-thread program: all phases, repeated `iterations` times
/// (the benchmark's outer time-step loop).
struct AccessProgram {
  std::vector<Phase> phases;
  std::uint32_t iterations = 1;

  /// Total memory accesses the program will emit (for test assertions and
  /// workload sizing).
  std::uint64_t total_accesses() const;
  /// Total barrier events the program will emit.
  std::uint64_t total_barriers() const;
};

/// Lazy interpreter for one AccessProgram.
///
/// `fill` emits each walk segment in a tight loop: sequential walks step an
/// element cursor (no per-event `%`), random walks and the jitter draw
/// reduce with FastMod, and the RNG is Mt19937_64. A random element is
/// drawn before its jitter, each draw reduced exactly as `rng() % bound`,
/// so a seed's event sequence does not depend on how it is batched.
class ProgramStream final : public ThreadStream {
 public:
  ProgramStream(AccessProgram program, std::uint64_t seed);

  std::size_t fill(std::span<TraceEvent> out) override;

 private:
  /// Divide-free constants of one walk, computed once per stream.
  struct WalkPlan {
    FastMod elems;         ///< num_elems() (random element draws)
    FastMod jitter;        ///< gap_jitter + 1, as 64 bits so it never wraps
    std::uint64_t step;    ///< stride reduced into [0, num_elems())
  };

  /// Advances cursors to the next walk with work, emitting barriers between
  /// phases. Returns false when the program is exhausted.
  bool position_on_walk();

  /// Emits up to `room` (>= 1) events of the current walk into `out` and
  /// returns how many; a read-modify-write cut by the end of `out` leaves
  /// its write pending for the next call.
  std::size_t emit_segment(TraceEvent* out, std::size_t room);

  AccessProgram program_;
  std::vector<WalkPlan> plans_;           ///< every walk, phase-major
  std::vector<std::size_t> phase_plans_;  ///< index of each phase's first
  Mt19937_64 rng_;

  // Cursors.
  std::uint32_t iter_ = 0;
  std::size_t phase_ = 0;
  std::uint32_t phase_rep_ = 0;
  std::size_t walk_ = 0;
  std::uint64_t elem_index_ = 0;   ///< elements emitted in current walk
  bool write_pending_ = false;     ///< second half of a read-modify-write
  VirtAddr pending_addr_ = 0;
  bool barrier_pending_ = false;
  bool finished_ = false;
};

}  // namespace tlbmap
