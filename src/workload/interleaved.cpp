#include "workload/interleaved.hpp"

#include "common/assert.hpp"

namespace ppf::workload {
namespace {

/// Distinct-address-space tag: program i lives at i << 40.
constexpr unsigned kAsidShift = 40;

}  // namespace

InterleavedTrace::InterleavedTrace(
    std::vector<std::unique_ptr<TraceSource>> sources,
    std::uint64_t switch_interval)
    : sources_(std::move(sources)), switch_interval_(switch_interval) {
  PPF_CHECK(!sources_.empty());
  PPF_CHECK(switch_interval_ > 0);
  name_ = "interleaved(";
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    PPF_CHECK(sources_[i] != nullptr);
    if (i != 0) name_ += "+";
    name_ += sources_[i]->name();
  }
  name_ += ")";
}

std::size_t InterleavedTrace::next_batch(TraceColumns out, std::size_t n) {
  std::size_t got = 0;
  // A finite source exhausted mid-slice yields the remainder of its
  // slice to the next program; the mix ends only when a full rotation
  // finds every source dry.
  for (std::size_t dry = 0; got < n && dry < sources_.size();) {
    if (issued_in_slice_ >= switch_interval_) {
      issued_in_slice_ = 0;
      current_ = (current_ + 1) % sources_.size();
      ++switches_;
    }
    const std::size_t want =
        std::min<std::uint64_t>(n - got, switch_interval_ - issued_in_slice_);
    const TraceColumns slice = out + got;
    const std::size_t read = sources_[current_]->next_batch(slice, want);
    const Addr tag = static_cast<Addr>(current_) << kAsidShift;
    for (std::size_t i = 0; i < read; ++i) {
      slice.pc[i] |= tag;
      // An address or a branch target; an Op's operand stays 0.
      if (op_kind(slice.op[i]) != InstKind::Op) slice.operand[i] |= tag;
    }
    got += read;
    issued_in_slice_ += read;
    if (read == want) {
      dry = 0;
    } else {
      ++dry;
      issued_in_slice_ = switch_interval_;  // cede the rest of the slice
    }
  }
  return got;
}

}  // namespace ppf::workload
