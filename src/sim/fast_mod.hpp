// Divide-free `x % d` for a divisor fixed at construction.
//
// Set-associative containers reduce every lookup key to a set index. The
// paper's Harpertown L2 (6 MB, 8-way, 64 B lines) has 12,288 sets, which is
// not a power of two, so a plain `%` costs a 64-bit hardware divide on the
// simulator's hottest path. FastMod replaces it with a mask for powers of
// two and otherwise with Lemire's direct remainder (Lemire, Kaser & Kurz,
// "Faster Remainder by Direct Computation", 2019): with the 128-bit
// constant M = ceil(2^128 / d), `x % d` is the high 64 bits of
// (M * x mod 2^128) * d. With 128 fractional bits the result is exact for
// every 64-bit x and every 64-bit d >= 1 (F = 128 >= N + L = 64 + 64).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace tlbmap {

class FastMod {
 public:
  explicit FastMod(std::uint64_t divisor)
      : divisor_(divisor), pow2_(std::has_single_bit(divisor)) {
    if (divisor == 0) throw std::invalid_argument("FastMod: zero divisor");
    if (!pow2_) m_ = ~Wide{0} / divisor + 1;
  }

  std::uint64_t operator()(std::uint64_t x) const {
    if (pow2_) return x & (divisor_ - 1);
    const Wide low = m_ * x;  // fractional part of x / d, 128-bit fixed point
    const Wide bottom = (static_cast<Wide>(static_cast<std::uint64_t>(low)) *
                         divisor_) >> 64;
    const Wide top = (low >> 64) * divisor_;
    return static_cast<std::uint64_t>((top + bottom) >> 64);
  }

  std::uint64_t divisor() const { return divisor_; }

 private:
  using Wide = unsigned __int128;

  std::uint64_t divisor_;
  bool pow2_;
  Wide m_ = 0;
};

}  // namespace tlbmap
