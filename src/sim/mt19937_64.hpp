// MT19937-64 (Matsumoto & Nishimura; Nishimura 2000), bit-identical to
// the C++ standard library's mt19937_64 engine for the same seed.
//
// The NPB generators draw one or two numbers per emitted access, so the
// engine sits on the trace-generation hot path. libstdc++'s refill of the
// 312-word state selects the twist matrix per word with a conditional on
// random data (`y & 1 ? a : 0`), which can compile to a branch that
// mispredicts about half the time; in a tight -O2 loop on a 4-vCPU x86-64
// host it cost 9.5-10 ns per draw against 2.7-4.7 ns for this engine.
// This engine computes the same twist branch-free, as
// `-(y & 1) & kMatrixA`, and splits the refill into the three index ranges
// where `i + 1` and `i + m` do not wrap, so no `%` is left either. Seeding,
// refill and tempering follow the standard's definition, so every draw
// equals the standard engine's (tests/test_differential.cpp checks it).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tlbmap {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
  }

  std::uint64_t operator()() {
    if (index_ == kN) refill();
    std::uint64_t y = state_[index_++];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= y >> 43;
    return y;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;
  static constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

  static std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                             std::uint64_t far) {
    const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
  }

  void refill() {
    std::size_t i = 0;
    for (; i < kN - kM; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (; i < kN - 1; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  std::array<std::uint64_t, kN> state_;
  std::size_t index_ = kN;  // the first draw refills, like the standard's
};

}  // namespace tlbmap
