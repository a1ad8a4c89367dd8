// Victim cache (Jouppi, ISCA 1990): a small fully-associative buffer
// holding the last few lines evicted from the L1, probed on L1 misses.
// It is the classic *conflict-miss* mitigation and, like the dedicated
// prefetch buffer of Section 5.5, a hardware alternative the pollution
// filter competes with — if pollution evictions were cheap to undo, the
// filter would matter less. `bench_paper fig=extras` quantifies the
// interaction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace ppf::check {
class CheckRegistry;
}

namespace ppf::mem {

class VictimCache {
 public:
  explicit VictimCache(std::size_t entries);

  /// Record an eviction from the L1. The full eviction record is kept so
  /// a later recall preserves the PIB/RIB/trigger metadata.
  void insert(const Eviction& ev);

  /// L1-miss probe: on a hit the entry is removed and returned so the
  /// hierarchy can reinstall the line in the L1.
  std::optional<Eviction> recall(LineAddr line);

  [[nodiscard]] bool contains(LineAddr line) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] std::uint64_t probes() const { return probes_.value(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t inserts() const { return inserts_.value(); }

  /// Register this victim cache's structural invariants (ppf::check):
  /// bounded occupancy, no duplicate lines, stamp monotonicity.
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const;

  void reset_stats();

 private:
  struct Slot {
    bool valid = false;
    Eviction record;
    std::uint64_t stamp = 0;
  };

  std::vector<Slot> slots_;
  std::uint64_t stamp_ = 0;
  mutable Counter probes_;
  Counter hits_;
  Counter inserts_;
};

}  // namespace ppf::mem
