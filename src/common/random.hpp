// Deterministic pseudo-random number generation for workload synthesis.
//
// std::mt19937 would work but is heavyweight for the inner loops of trace
// generation; xorshift128+ gives us speed, determinism across platforms,
// and a tiny state we can embed per-pattern.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace ppf {

/// xorshift128+ generator. Deterministic for a given seed on all platforms.
class Xorshift {
 public:
  explicit Xorshift(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // The draws are defined inline: they sit in the inner loop of trace
  // generation.

  /// Next raw 64-bit value.
  std::uint64_t next() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform integer in [0, bound). bound must be nonzero.
  std::uint64_t below(std::uint64_t bound) {
    PPF_ASSERT(bound != 0);
    // Rejection-free multiply-shift reduction; bias is negligible for the
    // bounds used in workload generation (< 2^32). __extension__ silences
    // -Wpedantic for the 128-bit intermediate (GCC/Clang builtin).
    __extension__ using uint128 = unsigned __int128;
    return static_cast<std::uint64_t>(
        (static_cast<uint128>(next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

/// Zipf-distributed index sampler over [0, n) with exponent `s`.
///
/// Used to model hot/cold working-set skew in the synthetic benchmarks.
/// Precomputes the CDF once; sampling is a binary search.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Draw an index in [0, n); index 0 is the most popular.
  std::size_t sample(Xorshift& rng) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Produces a random cyclic permutation of [0, n) — a single ring that
/// visits every element. Used to build pointer-chase patterns whose next
/// address is unpredictable to stride/next-line prefetchers.
std::vector<std::uint32_t> make_chase_ring(std::size_t n, Xorshift& rng);

}  // namespace ppf
