#include "workload/patterns.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace ppf::workload {

StridedStream::StridedStream(Addr base, std::uint64_t stride,
                             std::uint64_t count)
    : base_(base), stride_(stride), count_(count) {
  PPF_CHECK(stride > 0);
  PPF_CHECK(count > 0);
}

Addr StridedStream::next(Xorshift&) {
  const Addr a = base_ + i_ * stride_;
  if (++i_ == count_) i_ = 0;
  return a;
}

std::optional<Addr> StridedStream::peek(unsigned ahead) const {
  return base_ + ((i_ + ahead) % count_) * stride_;
}

PointerChaseStream::PointerChaseStream(Addr base, std::uint64_t node_bytes,
                                       std::size_t nodes, std::uint64_t seed)
    : base_(base), node_bytes_(node_bytes) {
  PPF_CHECK(node_bytes > 0);
  PPF_CHECK(nodes >= 2);
  Xorshift rng(seed);
  ring_ = make_chase_ring(nodes, rng);
}

Addr PointerChaseStream::addr_of(std::uint32_t node) const {
  return base_ + static_cast<Addr>(node) * node_bytes_;
}

Addr PointerChaseStream::next(Xorshift&) {
  cur_ = ring_[cur_];
  return addr_of(cur_);
}

std::optional<Addr> PointerChaseStream::peek(unsigned ahead) const {
  std::uint32_t n = cur_;
  for (unsigned i = 0; i < ahead; ++i) n = ring_[n];
  return addr_of(n);
}

ZipfStream::ZipfStream(Addr base, std::uint64_t region_bytes,
                       std::uint64_t granule, double skew)
    : base_(base),
      granule_(granule),
      zipf_(static_cast<std::size_t>(region_bytes / granule), skew) {
  PPF_CHECK(granule > 0);
  PPF_CHECK(region_bytes >= granule);
  // Scatter popularity ranks across the region deterministically, so hot
  // granules are not all packed at the region's start.
  placement_.resize(zipf_.size());
  std::iota(placement_.begin(), placement_.end(), 0U);
  Xorshift rng(base ^ 0x5EED5EEDULL);
  for (std::size_t i = placement_.size() - 1; i > 0; --i) {
    std::swap(placement_[i], placement_[rng.below(i + 1)]);
  }
}

Addr ZipfStream::next(Xorshift& rng) {
  const std::size_t rank = zipf_.sample(rng);
  return base_ + static_cast<Addr>(placement_[rank]) * granule_;
}

RandomStream::RandomStream(Addr base, std::uint64_t region_bytes,
                           std::uint64_t granule)
    : base_(base), granule_(granule), granules_(region_bytes / granule) {
  PPF_CHECK(granule > 0);
  PPF_CHECK(granules_ >= 1);
}

Addr RandomStream::next(Xorshift& rng) {
  return base_ + rng.below(granules_) * granule_;
}

Block2DStream::Block2DStream(Addr base, std::uint64_t row_bytes,
                             std::uint64_t rows, std::uint64_t elem_bytes,
                             std::uint64_t block)
    : base_(base),
      row_bytes_(row_bytes),
      rows_(rows),
      elem_bytes_(elem_bytes),
      block_(block) {
  PPF_CHECK(elem_bytes > 0 && block > 0);
  PPF_CHECK(row_bytes % (block * elem_bytes) == 0);
  PPF_CHECK(rows % block == 0);
}

std::uint64_t Block2DStream::steps_per_image() const {
  return (row_bytes_ / elem_bytes_) * rows_;
}

Addr Block2DStream::addr_at(std::uint64_t step) const {
  const std::uint64_t s = step % steps_per_image();
  const std::uint64_t elems_per_row = row_bytes_ / elem_bytes_;
  const std::uint64_t blocks_per_row = elems_per_row / block_;
  const std::uint64_t per_tile = block_ * block_;
  const std::uint64_t tile = s / per_tile;
  const std::uint64_t in_tile = s % per_tile;
  const std::uint64_t tile_row = tile / blocks_per_row;
  const std::uint64_t tile_col = tile % blocks_per_row;
  const std::uint64_t y = tile_row * block_ + in_tile / block_;
  const std::uint64_t x = tile_col * block_ + in_tile % block_;
  PPF_ASSERT(y < rows_);
  return base_ + y * row_bytes_ + x * elem_bytes_;
}

Addr Block2DStream::next(Xorshift&) { return addr_at(step_++); }

std::optional<Addr> Block2DStream::peek(unsigned ahead) const {
  return addr_at(step_ + ahead);
}

}  // namespace ppf::workload
