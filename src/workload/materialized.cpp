#include "workload/materialized.hpp"

#include "common/assert.hpp"

namespace ppf::workload {

MaterializedTrace::MaterializedTrace(TraceSource& src, std::size_t count)
    : name_(src.name()) {
  allocate(count);
  size_ = src.next_batch(cols_, count);
  if (size_ < count) {
    // A finite source ran dry: keep only the records it wrote.
    const auto words = std::move(words_);
    const auto bytes = std::move(bytes_);
    const TraceColumns written = cols_;
    allocate(size_);
    copy_columns(written, cols_, size_);
  }
}

void MaterializedTrace::allocate(std::size_t n) {
  for (auto& w : words_) w = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  for (auto& b : bytes_) b = std::make_unique_for_overwrite<std::uint8_t[]>(n);
  cols_ = TraceColumns{words_[0].get(), words_[1].get(), bytes_[0].get(),
                       bytes_[1].get(), bytes_[2].get(), bytes_[3].get()};
}

bool MaterializedTrace::extends(const MaterializedTrace& prefix) const {
  if (this == &prefix) return true;
  if (name_ != prefix.name_ || size() < prefix.size()) return false;
  if (prefix.size() == 0) return true;
  constexpr std::size_t kSamples = 64;
  const std::size_t last = prefix.size() - 1;
  for (std::size_t k = 0; k <= kSamples; ++k) {
    const std::size_t p = last * k / kSamples;
    if (view().get(p) != prefix.view().get(p)) return false;
  }
  return true;
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

std::size_t TraceCursor::next_batch(TraceColumns out, std::size_t n) {
  const std::size_t got = std::min(n, arena_->size() - pos_);
  copy_columns(arena_->view() + pos_, out, got);
  pos_ += got;
  return got;
}

void TraceCursor::seek(std::size_t pos) {
  PPF_CHECK(pos <= arena_->size());
  pos_ = pos;
}

}  // namespace ppf::workload
