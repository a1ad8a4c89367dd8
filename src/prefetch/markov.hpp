// Markov (correlation-based) prefetcher after Charney & Reeves [2] (the
// paper's reference for correlation prefetching): a bounded table maps a
// missed line to the line that missed right after it last time, and a
// repeat miss prefetches that recorded successor. Extension beyond the
// paper's default prefetcher pair.
#pragma once

#include <vector>

#include "common/hash.hpp"
#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

struct MarkovConfig {
  std::size_t table_entries = 4096;  ///< power of two
  unsigned successors = 1;           ///< successors stored per entry (1..4)
};

class MarkovPrefetcher final : public Prefetcher {
 public:
  MarkovPrefetcher(const mem::Cache& l1, MarkovConfig cfg);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc, Addr, bool, std::vector<PrefetchRequest>&) override {}
  void on_prefetch_fill(LineAddr, PrefetchSource) override {}
  void on_prefetch_used(LineAddr, PrefetchSource) override {}

  [[nodiscard]] const char* name() const override { return "markov"; }

  [[nodiscard]] std::uint64_t transitions_recorded() const {
    return recorded_.value();
  }

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

 private:
  struct Entry {
    bool valid = false;
    LineAddr tag = 0;
    std::vector<LineAddr> successors;  ///< MRU-ordered, <= cfg.successors
  };

  [[nodiscard]] std::size_t index_of(LineAddr line) const;

  const mem::Cache* l1_;
  MarkovConfig cfg_;
  unsigned index_bits_;
  std::vector<Entry> table_;
  bool has_last_ = false;
  LineAddr last_miss_ = 0;
  Counter recorded_;
};

}  // namespace ppf::prefetch
