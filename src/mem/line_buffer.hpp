// A small fully-associative LRU store of eviction records, probed beside
// the L1. Two of the hierarchy's options are one:
//   * the dedicated prefetch buffer of Section 5.5 (Chen et al. [5]):
//     prefetched lines land here instead of the L1, and a demand hit
//     promotes the line into the L1;
//   * the victim cache (Jouppi, ISCA 1990): the last few lines evicted
//     from the L1D, probed on L1D misses, the classic conflict-miss
//     mitigation. It holds L1D victims only: an L1I victim or a record
//     the prefetch buffer displaces never enters it. If pollution evictions were cheap to undo the filter
//     would matter less; `bench_paper fig=extras` quantifies that.
// Each record is kept whole, so a line taken back keeps its
// PIB/RIB/trigger metadata and its dirty bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace ppf::check {
class CheckRegistry;
}

namespace ppf::mem {

class LineBuffer {
 public:
  explicit LineBuffer(std::size_t entries);

  /// Store `rec` as the most recently used record. Returns the record it
  /// displaced: the least recently used one, when every slot was full.
  /// A record for a line already held replaces it and displaces nothing.
  std::optional<Eviction> insert(const Eviction& rec);

  /// Probe: on a hit the record leaves the buffer and is returned.
  std::optional<Eviction> take(LineAddr line);

  /// Probe without removal, recency update or counting.
  [[nodiscard]] bool contains(LineAddr line) const;

  /// Remove and return every record, in slot order.
  [[nodiscard]] std::vector<Eviction> drain();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] std::uint64_t probes() const { return probes_.value(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t inserts() const { return inserts_.value(); }

  /// Register the buffer's structural invariants (ppf::check): no line
  /// held twice, stamp monotonicity, RIB => PIB in every record.
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
  Counter probes_;
  Counter hits_;
  Counter inserts_;
};

}  // namespace ppf::mem
