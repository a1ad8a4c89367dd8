// Prefetch taxonomy after Srinivasan, Davidson & Tyson, "A Prefetch
// Taxonomy" [17] — the richer classification the paper cites and then
// deliberately simplifies to good/bad (Section 3: tracking the displaced
// line and reference order "requires many additional bits").
//
// This module implements the full classification as an *analysis* tool
// (the simulator can afford the bookkeeping hardware cannot), so the
// claim behind the paper's simplification can itself be measured:
//
//   useful            used before eviction, victim never missed again
//   useful-polluting  used, but the displaced line missed again first
//   polluting         never used AND the displaced line missed again
//   useless           never used, displaced line never missed again
//
// The paper's "good" = useful + useful-polluting; "bad" = polluting +
// useless. `bench_paper fig=extras` reports how much pollution hides
// inside each.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace ppf::sim {

struct TaxonomyCounts {
  std::uint64_t useful = 0;
  std::uint64_t useful_polluting = 0;
  std::uint64_t polluting = 0;
  std::uint64_t useless = 0;

  [[nodiscard]] std::uint64_t total() const {
    return useful + useful_polluting + polluting + useless;
  }
  /// The paper's two-way view of the same population.
  [[nodiscard]] std::uint64_t good() const {
    return useful + useful_polluting;
  }
  [[nodiscard]] std::uint64_t bad() const { return polluting + useless; }
};

class TaxonomyTracker {
 public:
  /// A prefetch filled line `p`, displacing `victim` (nullopt when it
  /// filled an invalid way). Only live victims — lines that had been
  /// referenced — can make a prefetch polluting.
  void on_prefetch_fill(LineAddr p, std::optional<LineAddr> victim,
                        bool victim_was_live);

  /// Demand miss observed at the L1.
  void on_demand_miss(LineAddr line);

  /// First demand use of a prefetched line.
  void on_prefetch_used(LineAddr p);

  /// The prefetched line left the L1; classify it.
  void on_prefetch_evicted(LineAddr p);

  /// Classify everything still being tracked (end of run).
  void finalize();

  [[nodiscard]] const TaxonomyCounts& counts() const { return counts_; }
  void reset();

 private:
  struct Pending {
    LineAddr prefetched = 0;
    LineAddr victim = 0;
    bool has_victim = false;
    bool used = false;
    bool victim_remissed = false;
  };

  void classify(const Pending& e);

  /// Prefetched line -> tracking entry. Flat open-addressed maps: both
  /// tables churn on the demand-miss path, and the classification only
  /// ever folds order-independent counter sums, so unordered_map's node
  /// allocations bought nothing (see common/flat_map.hpp).
  FlatHashMap<Pending> live_;
  /// Victim line -> prefetched lines whose fill displaced it.
  FlatHashMap<std::vector<LineAddr>> victims_;
  TaxonomyCounts counts_;
};

}  // namespace ppf::sim
