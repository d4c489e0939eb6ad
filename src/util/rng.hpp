// Deterministic, seedable RNG (xoshiro256**) for workload generation.
//
// We do not use std::mt19937 in library code because its state is bulky and
// distribution results are not guaranteed identical across standard library
// implementations; reproducibility of simulated experiments matters here.
#pragma once

#include <cstdint>

namespace ovp::util {

/// SplitMix64's increment (the 64-bit golden ratio) and its output
/// finalizer, a bijective mix in which every input bit affects every
/// output bit.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += kGoldenGamma;
      word = splitmix64(x);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace ovp::util
