// Dead-block prefetch gate, modelled after the idea in Lai, Fide &
// Falsafi, "Dead-block Prediction and Dead-block Correlating
// Prefetchers" [11] — the other hardware pollution-control approach the
// paper's Related Work discusses. Instead of judging the *prefetch*, it
// judges the *victim*: a prefetch is admitted only when the L1 line it
// would displace looks dead (not touched for at least a full cache
// turnover of accesses), so live data is never evicted for speculation.
//
// Provided as a comparison point (filter=deadblock); `bench_paper
// fig=extras` quantifies it against the paper's history-table filters.
#pragma once

#include "filter/filter.hpp"
#include "mem/cache.hpp"

namespace ppf::filter {

struct DeadBlockConfig {
  /// Victim age threshold, as a multiple of the cache's line count (one
  /// full turnover of touches = every line touched once on average).
  double age_multiple = 1.0;
};

class DeadBlockFilter final : public PollutionFilter {
 public:
  /// `l1` must outlive the filter; the gate probes its tag recency.
  DeadBlockFilter(const mem::Cache& l1, DeadBlockConfig cfg);

  void feedback(const FilterFeedback&) override {}  // stateless gate
  [[nodiscard]] const char* name() const override { return "deadblock"; }

  [[nodiscard]] std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache& l1) const override {
    auto copy = std::make_unique<DeadBlockFilter>(*this);
    copy->l1_ = &l1;
    return copy;
  }

 protected:
  bool decide(const PrefetchCandidate& c) override;

 private:
  const mem::Cache* l1_;
  std::uint64_t age_threshold_;
};

}  // namespace ppf::filter
