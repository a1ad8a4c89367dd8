// Stride prefetcher built on a Reference Prediction Table (RPT)
// [Chen & Baer, "Effective Hardware-Based Data Prefetching", 1995].
//
// Not part of the paper's default configuration — provided as the
// "several prefetching techniques altogether" extension point the
// conclusion calls out, and exercised by the ablation bench.
#pragma once

#include <vector>

#include "common/hash.hpp"
#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

struct StrideConfig {
  std::size_t table_entries = 512;  ///< power of two
  unsigned degree = 1;              ///< lines prefetched per confirmation
};

class StridePrefetcher final : public Prefetcher {
 public:
  StridePrefetcher(const mem::Cache& l1, StrideConfig cfg);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc pc, Addr addr, bool hit,
                    std::vector<PrefetchRequest>& out) override;
  void on_prefetch_fill(LineAddr line, PrefetchSource source) override;
  void on_prefetch_used(LineAddr line, PrefetchSource source) override;

  [[nodiscard]] const char* name() const override { return "stride"; }

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

 private:
  // RPT entry states per Chen & Baer.
  enum class State : std::uint8_t { Initial, Transient, Steady, NoPred };

  struct Entry {
    bool valid = false;
    Pc tag = 0;
    Addr last_addr = 0;
    std::int64_t stride = 0;
    State state = State::Initial;
  };

  const mem::Cache* l1_;
  StrideConfig cfg_;
  unsigned index_bits_;
  std::vector<Entry> table_;
};

}  // namespace ppf::prefetch
