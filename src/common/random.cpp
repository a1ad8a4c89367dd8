#include "common/random.hpp"

#include <cmath>
#include <numeric>

#include "common/hash.hpp"

namespace ppf {

Xorshift::Xorshift(std::uint64_t seed) {
  // Expand the seed through splitmix64 so nearby seeds give unrelated
  // streams; ensure a nonzero state.
  s0_ = mix64(seed + 0x9E3779B97F4A7C15ULL);
  s1_ = mix64(s0_ + 0x9E3779B97F4A7C15ULL);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;
}

std::uint64_t Xorshift::between(std::uint64_t lo, std::uint64_t hi) {
  PPF_ASSERT(lo <= hi);
  return lo + below(hi - lo + 1);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  PPF_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) v /= acc;
}

std::size_t ZipfSampler::sample(Xorshift& rng) const {
  const double u = rng.uniform();
  // Binary search for the first CDF entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::vector<std::uint32_t> make_chase_ring(std::size_t n, Xorshift& rng) {
  PPF_CHECK(n >= 1);
  // Sattolo's algorithm: produces a uniformly random single-cycle
  // permutation, so the chase visits all n slots before repeating.
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0U);
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.below(i);  // j in [0, i)
    std::swap(next[i], next[j]);
  }
  return next;
}

}  // namespace ppf
