// Deterministic xoshiro256** generator.
//
// Tests and benches need reproducible random circuits/matrices across
// platforms and standard-library versions, which std::mt19937 +
// std::uniform_real_distribution do not guarantee. This generator plus the
// explicit mapping functions below are bit-stable everywhere.
#pragma once

#include <cmath>
#include <cstdint>

namespace symref::support {

/// One splitmix64 step: advance `x` by the golden-ratio increment and
/// finalize. The hash behind Rng seeding, counter-based Monte-Carlo draws,
/// fault-injection streams and retry jitter.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    for (auto& word : state_) {
      word = mix64(seed);
      seed += 0x9E3779B97F4A7C15ull;
    }
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept { return next_u64() % n; }

  /// Log-uniform double in [lo, hi), lo > 0 — natural for element values
  /// that span decades (1 pF .. 1 µF).
  double log_uniform(double lo, double hi) noexcept {
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }

  /// Random sign: ±1.
  double sign() noexcept { return (next_u64() & 1u) ? 1.0 : -1.0; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace symref::support
