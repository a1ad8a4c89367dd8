// PMP-style region-pattern prefetcher (after Jiang et al., "Merging
// Similar Patterns for Hardware Prefetching", MICRO 2022 — the
// pattern-merging prefetcher the related PMP repo implements over
// SRRIP caches).
//
// Memory is split into aligned regions of `region_lines` cache lines.
// Three tables cooperate:
//   * filter table — regions seen exactly once, remembering the first
//     (anchor) offset;
//   * accumulation table — regions with >= 2 accesses, accumulating a
//     bitmap of touched offsets relative to the anchor;
//   * pattern table — per anchor offset, one 2-bit vote counter per
//     rotated offset distance, trained from accumulation-table
//     evictions (the merged footprint of completed regions).
// A first access to a fresh region replays the learned pattern for its
// anchor offset as prefetch candidates for the whole region.
#pragma once

#include <vector>

#include "common/sat_counter.hpp"
#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

struct PmpConfig {
  /// Lines per region; power of two. 32 lines x 32B = 1KB regions at
  /// the paper's line size.
  unsigned region_lines = 32;
  /// Filter-table entries (regions tracked with one access so far).
  std::size_t filter_entries = 64;
  /// Accumulation-table entries (regions accumulating their footprint).
  std::size_t accum_entries = 32;
  /// Max prefetches emitted per trigger (0 = whole region allowed).
  unsigned degree_cap = 8;
};

class PmpPrefetcher final : public Prefetcher {
 public:
  /// `l1` must outlive the prefetcher (used only for line geometry).
  PmpPrefetcher(const mem::Cache& l1, PmpConfig cfg);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc pc, Addr addr, bool hit,
                    std::vector<PrefetchRequest>& out) override;
  void on_prefetch_fill(LineAddr line, PrefetchSource source) override;
  void on_prefetch_used(LineAddr line, PrefetchSource source) override;

  [[nodiscard]] const char* name() const override { return "pmp"; }

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

  /// Checks table geometry and that every accumulated bitmap covers its
  /// anchor bit.
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const override;

  [[nodiscard]] const PmpConfig& config() const { return cfg_; }

 private:
  struct FilterEntry {
    bool valid = false;
    std::uint64_t region = 0;
    unsigned anchor = 0;  ///< offset of the first access
  };
  struct AccumEntry {
    bool valid = false;
    std::uint64_t region = 0;
    unsigned anchor = 0;
    std::uint64_t bitmap = 0;  ///< touched offsets (absolute in-region)
  };

  /// Train the pattern table from a completed (evicted) region footprint.
  void train(const AccumEntry& e);
  /// Move a filter-table region to the accumulation table.
  void promote(const FilterEntry& fe, unsigned second_offset);

  [[nodiscard]] SaturatingCounter& vote(unsigned anchor, unsigned distance) {
    return pattern_[anchor * cfg_.region_lines + distance];
  }

  PmpConfig cfg_;
  const mem::Cache* l1_;
  unsigned offset_mask_ = 0;
  unsigned region_shift_ = 0;

  // Small linear-scan tables with round-robin replacement: bounded,
  // deterministic, and free of node allocation on the hot path.
  std::vector<FilterEntry> filter_;
  std::size_t filter_cursor_ = 0;
  std::vector<AccumEntry> accum_;
  std::size_t accum_cursor_ = 0;
  /// region_lines x region_lines vote counters, row = anchor offset,
  /// column = rotated distance from the anchor.
  std::vector<SaturatingCounter> pattern_;
};

}  // namespace ppf::prefetch
