#include "prefetch/markov.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf::prefetch {

MarkovPrefetcher::MarkovPrefetcher(const mem::Cache& l1, MarkovConfig cfg)
    : l1_(&l1), cfg_(cfg) {
  PPF_CHECK(is_pow2(cfg_.table_entries));
  PPF_CHECK(cfg_.successors >= 1 && cfg_.successors <= 4);
  index_bits_ = log2_exact(cfg_.table_entries);
  table_.resize(cfg_.table_entries);
}

std::size_t MarkovPrefetcher::index_of(LineAddr line) const {
  return static_cast<std::size_t>(
      table_index(HashKind::Fibonacci, line, index_bits_));
}

void MarkovPrefetcher::on_l1_demand(Pc pc, Addr addr,
                                    const mem::AccessResult& result,
                                    std::vector<PrefetchRequest>& out) {
  if (result.hit) return;
  const LineAddr line = l1_->line_of(addr);

  // Record the observed transition last_miss -> line.
  if (has_last_ && last_miss_ != line) {
    Entry& e = table_[index_of(last_miss_)];
    if (!e.valid || e.tag != last_miss_) {
      e.valid = true;
      e.tag = last_miss_;
      e.successors.clear();
    }
    auto& succ = e.successors;
    const auto it = std::find(succ.begin(), succ.end(), line);
    if (it != succ.end()) succ.erase(it);
    succ.insert(succ.begin(), line);  // MRU first
    if (succ.size() > cfg_.successors) succ.pop_back();
    recorded_.add();
  }
  has_last_ = true;
  last_miss_ = line;

  // Predict: prefetch the recorded successors of this miss.
  const Entry& e = table_[index_of(line)];
  if (e.valid && e.tag == line) {
    for (LineAddr s : e.successors) {
      out.push_back(PrefetchRequest{s, pc, PrefetchSource::Markov});
      count_emitted();
    }
  }
}

std::unique_ptr<Prefetcher> MarkovPrefetcher::clone_rebound(
    mem::Cache& l1, mem::Cache& /*l2*/) const {
  auto copy = std::make_unique<MarkovPrefetcher>(*this);
  copy->l1_ = &l1;
  return copy;
}

}  // namespace ppf::prefetch
