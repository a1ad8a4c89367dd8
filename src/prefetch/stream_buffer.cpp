#include "prefetch/stream_buffer.hpp"

#include "common/assert.hpp"

namespace ppf::prefetch {

StreamBufferPrefetcher::StreamBufferPrefetcher(const mem::Cache& l1,
                                               StreamBufferConfig cfg)
    : l1_(&l1), cfg_(cfg), streams_(cfg.num_streams) {
  PPF_CHECK(cfg_.num_streams >= 1);
  PPF_CHECK(cfg_.depth >= 1);
}

std::size_t StreamBufferPrefetcher::active_streams() const {
  std::size_t n = 0;
  for (const Stream& s : streams_) n += s.valid ? 1 : 0;
  return n;
}

void StreamBufferPrefetcher::on_l1_demand(Pc pc, Addr addr,
                                          const mem::AccessResult& result,
                                          std::vector<PrefetchRequest>& out) {
  if (result.hit) return;  // stream buffers react to misses only
  const LineAddr line = l1_->line_of(addr);

  // A miss that matches a tracked stream's expectation confirms and
  // advances it: keep running `depth` lines ahead.
  for (Stream& s : streams_) {
    if (s.valid && s.next == line) {
      s.next = line + 1;
      s.last_hit = ++stamp_;
      out.push_back(PrefetchRequest{line + cfg_.depth, pc,
                                    PrefetchSource::StreamBuffer});
      count_emitted();
      return;
    }
  }

  // Otherwise allocate the LRU stream at this miss and start it.
  Stream* victim = &streams_[0];
  for (Stream& s : streams_) {
    if (!s.valid) {
      victim = &s;
      break;
    }
    if (s.last_hit < victim->last_hit) victim = &s;
  }
  victim->valid = true;
  victim->next = line + 1;
  victim->last_hit = ++stamp_;
  for (unsigned d = 1; d <= cfg_.depth; ++d) {
    out.push_back(
        PrefetchRequest{line + d, pc, PrefetchSource::StreamBuffer});
    count_emitted();
  }
}

std::unique_ptr<Prefetcher> StreamBufferPrefetcher::clone_rebound(
    mem::Cache& l1, mem::Cache& /*l2*/) const {
  auto copy = std::make_unique<StreamBufferPrefetcher>(*this);
  copy->l1_ = &l1;
  return copy;
}

}  // namespace ppf::prefetch
