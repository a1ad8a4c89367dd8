#include "prefetch/nsp.hpp"

#include "common/assert.hpp"

namespace ppf::prefetch {

NextSequencePrefetcher::NextSequencePrefetcher(mem::Cache& l1, unsigned degree)
    : l1_(&l1), degree_(degree) {
  PPF_CHECK(degree >= 1);
}

void NextSequencePrefetcher::on_l1_demand(Pc pc, Addr addr,
                                          const mem::AccessResult& result,
                                          std::vector<PrefetchRequest>& out) {
  // Trigger on a miss or on a hit to a still-tagged (prefetched, not yet
  // confirmed) line.
  if (result.hit && !result.hit_nsp_tagged) return;
  const LineAddr line = l1_->line_of(addr);
  for (unsigned d = 1; d <= degree_; ++d) {
    out.push_back(PrefetchRequest{line + d, pc, PrefetchSource::NextSequence});
    count_emitted();
  }
}

void NextSequencePrefetcher::on_l2_demand(Pc, Addr, bool,
                                          std::vector<PrefetchRequest>&) {}

void NextSequencePrefetcher::on_prefetch_fill(LineAddr line,
                                              PrefetchSource source) {
  // Any prefetched line gets its tag bit set so a later hit extends the
  // stream; the bit is cleared by the cache on the first demand touch.
  if (source == PrefetchSource::NextSequence) {
    l1_->set_nsp_tag(l1_->base_of(line), true);
  }
}

void NextSequencePrefetcher::on_prefetch_used(LineAddr, PrefetchSource) {}

std::unique_ptr<Prefetcher> NextSequencePrefetcher::clone_rebound(
    mem::Cache& l1, mem::Cache& /*l2*/) const {
  auto copy = std::make_unique<NextSequencePrefetcher>(*this);
  copy->l1_ = &l1;
  return copy;
}

}  // namespace ppf::prefetch
