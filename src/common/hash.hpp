// Index hash functions for direct-indexed hardware tables.
//
// Real pollution-filter hardware would index its history table with a few
// XOR gates; we provide that (FoldXor) plus stronger mixers used in the
// hash-function ablation study (`bench_paper fig=ablation`).
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf {

/// Hash family selector for table indexing.
enum class HashKind : std::uint8_t {
  Modulo,     ///< low bits only — what trivial hardware would do
  FoldXor,    ///< XOR-fold all address bits into the index width
  Fibonacci,  ///< multiplicative (golden-ratio) hashing
  Mix64,      ///< full 64-bit finalizer (splitmix64-style)
};

inline const char* to_string(HashKind k) {
  switch (k) {
    case HashKind::Modulo: return "modulo";
    case HashKind::FoldXor: return "fold-xor";
    case HashKind::Fibonacci: return "fibonacci";
    case HashKind::Mix64: return "mix64";
  }
  PPF_ASSERT_MSG(false, "unhandled HashKind");
  return "?";
}

/// XOR-fold a 64-bit key down to `index_bits` bits.
constexpr std::uint64_t fold_xor(std::uint64_t key, unsigned index_bits) {
  PPF_CHECK(index_bits >= 1 && index_bits <= 32);
  std::uint64_t h = key;
  for (unsigned w = 64; w > index_bits; w = (w + 1) / 2) {
    const unsigned half = (w + 1) / 2;
    h = (h ^ (h >> half)) & low_mask(half);
  }
  return h & low_mask(index_bits);
}

/// Multiplicative hash using the 64-bit golden ratio constant.
constexpr std::uint64_t fibonacci_hash(std::uint64_t key, unsigned index_bits) {
  PPF_CHECK(index_bits >= 1 && index_bits <= 32);
  return (key * 0x9E3779B97F4A7C15ULL) >> (64 - index_bits);
}

/// splitmix64 finalizer — a full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Apply the selected hash to produce an index in [0, 2^index_bits).
constexpr std::uint64_t table_index(HashKind kind, std::uint64_t key,
                                    unsigned index_bits) {
  switch (kind) {
    case HashKind::Modulo:
      return key & low_mask(index_bits);
    case HashKind::FoldXor:
      return fold_xor(key, index_bits);
    case HashKind::Fibonacci:
      return fibonacci_hash(key, index_bits);
    case HashKind::Mix64:
      return mix64(key) & low_mask(index_bits);
  }
  return 0;
}

}  // namespace ppf
