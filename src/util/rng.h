// Deterministic pseudo-random number generation.
//
// The simulator and the workload generators must be bit-reproducible across
// platforms and runs, so we ship our own small generator (xoshiro256**,
// public domain by Blackman & Vigna) instead of relying on the
// implementation-defined distributions of <random>.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"

namespace acfc::util {

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with a copyable state,
/// which the simulator snapshots into process checkpoints so that replay
/// after a rollback regenerates identical random choices.
class Rng {
 public:
  /// Seeds via splitmix64 so that consecutive seeds give unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // splitmix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
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

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    ACFC_CHECK_MSG(lo <= hi, "uniform_int requires lo <= hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() - span + 1;
    const std::uint64_t threshold = limit % span;
    std::uint64_t r = next_u64();
    while (r < threshold) r = next_u64();
    return lo + static_cast<std::int64_t>(r % span);
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) {
    ACFC_CHECK_MSG(rate > 0.0, "exponential requires rate > 0");
    double u = uniform01();
    // Guard log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  friend bool operator==(const Rng& a, const Rng& b) {
    for (int i = 0; i < 4; ++i)
      if (a.state_[i] != b.state_[i]) return false;
    return true;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace acfc::util
