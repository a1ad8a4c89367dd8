#include "prefetch/stride.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf::prefetch {

StridePrefetcher::StridePrefetcher(const mem::Cache& l1, StrideConfig cfg)
    : l1_(&l1), cfg_(cfg) {
  PPF_CHECK(is_pow2(cfg_.table_entries));
  PPF_CHECK(cfg_.degree >= 1);
  index_bits_ = log2_exact(cfg_.table_entries);
  table_.resize(cfg_.table_entries);
}

void StridePrefetcher::on_l1_demand(Pc pc, Addr addr,
                                    const mem::AccessResult&,
                                    std::vector<PrefetchRequest>& out) {
  Entry& e = table_[table_index(HashKind::FoldXor, pc, index_bits_)];
  if (!e.valid || e.tag != pc) {
    e = Entry{true, pc, addr, 0, State::Initial};
    return;
  }

  const std::int64_t stride =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(e.last_addr);
  const bool match = (stride == e.stride) && stride != 0;

  // Chen & Baer state machine: Initial -> Steady on a match, otherwise
  // Transient while learning the new stride; NoPred after repeated chaos.
  switch (e.state) {
    case State::Initial:
      e.state = match ? State::Steady : State::Transient;
      break;
    case State::Transient:
      e.state = match ? State::Steady : State::NoPred;
      break;
    case State::Steady:
      if (!match) e.state = State::Initial;
      break;
    case State::NoPred:
      if (match) e.state = State::Transient;
      break;
  }
  if (!match) e.stride = stride;
  e.last_addr = addr;

  if (e.state == State::Steady && e.stride != 0) {
    for (unsigned d = 1; d <= cfg_.degree; ++d) {
      const Addr target =
          addr + static_cast<Addr>(e.stride * static_cast<std::int64_t>(d));
      out.push_back(
          PrefetchRequest{l1_->line_of(target), pc, PrefetchSource::Stride});
      count_emitted();
    }
  }
}

void StridePrefetcher::on_l2_demand(Pc, Addr, bool,
                                    std::vector<PrefetchRequest>&) {}
void StridePrefetcher::on_prefetch_fill(LineAddr, PrefetchSource) {}
void StridePrefetcher::on_prefetch_used(LineAddr, PrefetchSource) {}

std::unique_ptr<Prefetcher> StridePrefetcher::clone_rebound(
    mem::Cache& l1, mem::Cache& /*l2*/) const {
  auto copy = std::make_unique<StridePrefetcher>(*this);
  copy->l1_ = &l1;
  return copy;
}

}  // namespace ppf::prefetch
