#include "workload/materialized.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace ppf::workload {

MaterializedTrace::MaterializedTrace(TraceSource& src, std::size_t count)
    : name_(src.name()) {
  // Size the columns up front and write by index: the per-record
  // push_back (capacity check + size bump, eight times per record) was a
  // measurable slice of whole-sweep time for large arenas.
  pc_.resize(count);
  kind_.resize(count);
  addr_.resize(count);
  target_.resize(count);
  flags_.resize(count);
  dst_.resize(count);
  src1_.resize(count);
  src2_.resize(count);

  std::array<TraceRecord, 256> buf;
  std::size_t n = 0;
  while (n < count) {
    const std::size_t got =
        src.next_batch(buf.data(), std::min(count - n, buf.size()));
    if (got == 0) break;  // finite source ran dry: arena is just shorter
    for (std::size_t i = 0; i < got; ++i) {
      const TraceRecord& r = buf[i];
      const std::size_t p = n + i;
      pc_[p] = r.pc;
      kind_[p] = static_cast<std::uint8_t>(r.kind);
      addr_[p] = r.addr;
      target_[p] = r.target;
      flags_[p] = static_cast<std::uint8_t>((r.taken ? 1u : 0u) |
                                            (r.serial ? 2u : 0u));
      dst_[p] = r.dst;
      src1_[p] = r.src1;
      src2_[p] = r.src2;
    }
    n += got;
  }
  if (n < count) {  // trim the unwritten tail of a short source
    pc_.resize(n);
    kind_.resize(n);
    addr_.resize(n);
    target_.resize(n);
    flags_.resize(n);
    dst_.resize(n);
    src1_.resize(n);
    src2_.resize(n);
  }
}

std::size_t MaterializedTrace::bytes() const {
  return size() * (3 * sizeof(std::uint64_t) + 5 * sizeof(std::uint8_t));
}

bool MaterializedTrace::extends(const MaterializedTrace& prefix) const {
  if (this == &prefix) return true;
  if (name_ != prefix.name_ || size() < prefix.size()) return false;
  if (prefix.size() == 0) return true;
  constexpr std::size_t kSamples = 64;
  const std::size_t last = prefix.size() - 1;
  for (std::size_t k = 0; k <= kSamples; ++k) {
    const std::size_t p = last * k / kSamples;
    TraceRecord mine;
    TraceRecord theirs;
    gather(p, &mine, 1);
    prefix.gather(p, &theirs, 1);
    if (mine != theirs) return false;
  }
  return true;
}

void MaterializedTrace::gather(std::size_t pos, TraceRecord* out,
                               std::size_t n) const {
  PPF_ASSERT(pos + n <= size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = pos + i;
    TraceRecord& r = out[i];
    r.pc = pc_[p];
    r.kind = static_cast<InstKind>(kind_[p]);
    r.addr = addr_[p];
    r.target = target_[p];
    r.taken = (flags_[p] & 1u) != 0;
    r.serial = (flags_[p] & 2u) != 0;
    r.dst = dst_[p];
    r.src1 = src1_[p];
    r.src2 = src2_[p];
  }
}

std::shared_ptr<const MaterializedTrace> materialize(TraceSource& src,
                                                     std::size_t count) {
  return std::make_shared<const MaterializedTrace>(src, count);
}

TraceCursor::TraceCursor(std::shared_ptr<const MaterializedTrace> arena,
                         std::size_t start)
    : arena_(std::move(arena)), pos_(start) {
  PPF_CHECK(arena_ != nullptr);
  PPF_CHECK(pos_ <= arena_->size());
}

bool TraceCursor::next(TraceRecord& out) {
  if (pos_ >= arena_->size()) return false;
  arena_->gather(pos_, &out, 1);
  ++pos_;
  return true;
}

std::size_t TraceCursor::next_batch(TraceRecord* out, std::size_t n) {
  const std::size_t got = std::min(n, arena_->size() - pos_);
  arena_->gather(pos_, out, got);
  pos_ += got;
  return got;
}

void TraceCursor::seek(std::size_t pos) {
  PPF_CHECK(pos <= arena_->size());
  pos_ = pos;
}

}  // namespace ppf::workload
