// Deterministic random data generation.
//
// The pre-calculation step of Algorithm 1 times candidate implementations on
// randomly generated inputs, and the fuzzing subsystem (docs/FUZZING.md)
// derives whole models from a seed; tests, benches and fuzz campaigns need
// those draws to be reproducible *across platforms*, so everything funnels
// through this seeded engine.
//
// Portability contract: the raw mt19937_64 bit stream is fully specified by
// the C++ standard, but std::uniform_int_distribution and
// std::uniform_real_distribution are NOT — libstdc++ and libc++ map the same
// bit stream to different values, so a fuzz seed minimized on one platform
// would not reproduce on another.  The bounded draws below therefore use a
// self-contained Lemire multiply-shift reduction (with rejection, so they
// stay exactly uniform) and an explicit 53-bit mantissa mapping for reals.
// test_support.cpp pins expected values; do not change the algorithms
// without updating the pins and bumping the fuzz corpus.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace hcg {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform integer in [0, range); range == 0 means the full 64-bit span.
  /// Lemire's multiply-shift reduction, with rejection of the biased low
  /// slice so every value is exactly equally likely.
  std::uint64_t bounded(std::uint64_t range) {
    if (range == 0) return engine_();
    unsigned __int128 product =
        static_cast<unsigned __int128>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    // hi - lo + 1 in unsigned arithmetic; wraps to 0 for the full span,
    // which bounded() treats as "any 64-bit value".
    const std::uint64_t range = static_cast<std::uint64_t>(hi) -
                                static_cast<std::uint64_t>(lo) + 1;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     bounded(range));
  }

  /// Uniform double in [lo, hi).  The unit draw keeps exactly the 53
  /// mantissa bits a double can hold, so the mapping is bit-identical on
  /// every IEEE-754 platform.
  double uniform_real(double lo, double hi) {
    const double unit = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    return lo + unit * (hi - lo);
  }

  /// Vector of `n` floats in [-1, 1) — typical signal-processing payload.
  std::vector<float> signal_f32(std::size_t n) {
    std::vector<float> out(n);
    for (float& v : out) v = static_cast<float>(uniform_real(-1.0, 1.0));
    return out;
  }

  /// Vector of `n` int32 samples in [lo, hi].
  std::vector<std::int32_t> signal_i32(std::size_t n, std::int32_t lo = -1000,
                                       std::int32_t hi = 1000) {
    std::vector<std::int32_t> out(n);
    for (auto& v : out) v = static_cast<std::int32_t>(uniform_int(lo, hi));
    return out;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace hcg
