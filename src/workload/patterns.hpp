// Composable address-stream primitives for synthetic workloads.
//
// Each synthetic benchmark is a weighted mix of these streams. A stream
// produces the data addresses of one "logical" reference pattern in the
// program (an array sweep, a pointer chase, a hot/cold heap, ...). Streams
// that know their own future (`peek`) can be covered by compiler-style
// software prefetches; irregular streams cannot — reproducing the paper's
// observation that software prefetches are few but accurate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"

namespace ppf::workload {

class AddressStream {
 public:
  virtual ~AddressStream() = default;

  /// Next data address in this stream.
  virtual Addr next(Xorshift& rng) = 0;

  /// Address `ahead` references in the future, when statically knowable
  /// (the compiler's view). nullopt for irregular streams.
  [[nodiscard]] virtual std::optional<Addr> peek(unsigned ahead) const = 0;

  [[nodiscard]] virtual const char* kind() const = 0;
};

/// Array sweep: base + (i % count) * stride, repeating. Models unit-stride
/// streaming (stride <= line) and strided sweeps (stride > line).
class StridedStream final : public AddressStream {
 public:
  StridedStream(Addr base, std::uint64_t stride, std::uint64_t count);

  Addr next(Xorshift& rng) override;
  [[nodiscard]] std::optional<Addr> peek(unsigned ahead) const override;
  [[nodiscard]] const char* kind() const override { return "strided"; }

 private:
  Addr base_;
  std::uint64_t stride_;
  std::uint64_t count_;
  std::uint64_t i_ = 0;  ///< position in the sweep, in [0, count_)
};

/// Pointer chase over a randomly linked ring of `nodes` records of
/// `node_bytes` each. The next address is data-dependent and unpredictable
/// to next-line/stride prefetchers, yet the *sequence* repeats every lap,
/// which correlation-style prefetchers (SDP) can learn.
class PointerChaseStream final : public AddressStream {
 public:
  PointerChaseStream(Addr base, std::uint64_t node_bytes, std::size_t nodes,
                     std::uint64_t seed);

  Addr next(Xorshift& rng) override;
  /// The program *can* see d hops ahead by dereferencing — Luk & Mowry
  /// style pointer prefetching — so peek is supported.
  [[nodiscard]] std::optional<Addr> peek(unsigned ahead) const override;
  [[nodiscard]] const char* kind() const override { return "chase"; }

 private:
  [[nodiscard]] Addr addr_of(std::uint32_t node) const;

  Addr base_;
  std::uint64_t node_bytes_;
  std::vector<std::uint32_t> ring_;
  std::uint32_t cur_ = 0;
};

/// Zipf-skewed accesses over a region: a hot working set with a long cold
/// tail, at `granule` granularity. Irregular — no peek.
class ZipfStream final : public AddressStream {
 public:
  ZipfStream(Addr base, std::uint64_t region_bytes, std::uint64_t granule,
             double skew);

  Addr next(Xorshift& rng) override;
  [[nodiscard]] std::optional<Addr> peek(unsigned) const override {
    return std::nullopt;
  }
  [[nodiscard]] const char* kind() const override { return "zipf"; }

 private:
  Addr base_;
  std::uint64_t granule_;
  ZipfSampler zipf_;
  /// Granule index -> placement, so popularity is scattered in the region
  /// rather than packed at its start.
  std::vector<std::uint32_t> placement_;
};

/// Uniform random accesses over a region at `granule` granularity —
/// the pathological tail (mcf-like scattered reads). No peek.
class RandomStream final : public AddressStream {
 public:
  RandomStream(Addr base, std::uint64_t region_bytes, std::uint64_t granule);

  Addr next(Xorshift& rng) override;
  [[nodiscard]] std::optional<Addr> peek(unsigned) const override {
    return std::nullopt;
  }
  [[nodiscard]] const char* kind() const override { return "random"; }

 private:
  Addr base_;
  std::uint64_t granule_;
  std::uint64_t granules_;
};

/// 2-D block walk (ijpeg-style): visits an image of `rows` x `row_bytes`
/// in `block` x `block` tiles, row-major within each tile. Regular, so
/// peek is supported.
class Block2DStream final : public AddressStream {
 public:
  Block2DStream(Addr base, std::uint64_t row_bytes, std::uint64_t rows,
                std::uint64_t elem_bytes, std::uint64_t block);

  Addr next(Xorshift& rng) override;
  [[nodiscard]] std::optional<Addr> peek(unsigned ahead) const override;
  [[nodiscard]] const char* kind() const override { return "block2d"; }

 private:
  [[nodiscard]] Addr addr_at(std::uint64_t step) const;
  [[nodiscard]] std::uint64_t steps_per_image() const;

  Addr base_;
  std::uint64_t row_bytes_;
  std::uint64_t rows_;
  std::uint64_t elem_bytes_;
  std::uint64_t block_;
  std::uint64_t step_ = 0;
};

}  // namespace ppf::workload
