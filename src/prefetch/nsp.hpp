// Next-Sequence Prefetching (NSP) — tagged next-line prefetching
// [A. J. Smith, "Cache Memories", Computing Surveys 1982].
//
// A tag bit is kept with each L1 line, set when the line arrives via
// prefetch. The next sequential line is prefetched whenever a demand
// access misses the L1 *or* hits a line whose tag bit is still set (the
// access "confirms" the prefetch stream and extends it by one line).
#pragma once

#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

class NextSequencePrefetcher final : public Prefetcher {
 public:
  /// `l1` must outlive the prefetcher; the NSP tag bits live in its tag
  /// array (Cache::set_nsp_tag).
  explicit NextSequencePrefetcher(mem::Cache& l1, unsigned degree = 1);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc pc, Addr addr, bool hit,
                    std::vector<PrefetchRequest>& out) override;
  void on_prefetch_fill(LineAddr line, PrefetchSource source) override;
  void on_prefetch_used(LineAddr line, PrefetchSource source) override;

  [[nodiscard]] const char* name() const override { return "nsp"; }

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

 private:
  mem::Cache* l1_;
  unsigned degree_;
};

}  // namespace ppf::prefetch
