// Hardware prefetcher interface.
//
// Prefetchers observe demand traffic at the L1 and L2 and emit prefetch
// *candidates*; the pollution filter decides which candidates are actually
// issued (Figure 3 of the paper). Software prefetches do not come through
// this interface — they are records in the instruction trace.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace ppf::obs {
class MetricRegistry;
}
namespace ppf::check {
class CheckRegistry;
}

namespace ppf::prefetch {

/// A prefetch candidate produced by a prefetcher (line-granular).
struct PrefetchRequest {
  LineAddr line = 0;
  Pc trigger_pc = 0;  ///< PC of the memory instruction that triggered it
  PrefetchSource source = PrefetchSource::NextSequence;
};

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Demand access observed at the L1 (after the tag lookup).
  virtual void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                            std::vector<PrefetchRequest>& out) = 0;

  /// Demand access observed at the L2.
  virtual void on_l2_demand(Pc pc, Addr addr, bool hit,
                            std::vector<PrefetchRequest>& out) = 0;

  /// A prefetch issued earlier has filled the L1.
  virtual void on_prefetch_fill(LineAddr line, PrefetchSource source) = 0;

  /// A previously prefetched line was demand-referenced for the first time.
  virtual void on_prefetch_used(LineAddr line, PrefetchSource source) = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Copy of this prefetcher with every learned bit of state, its cache
  /// references rebound to `l1`/`l2` (a cloned hierarchy's caches): the
  /// implicit copy of *this, with its cache pointers re-pointed.
  /// Returns nullptr when the prefetcher does not support cloning —
  /// hierarchies containing such a prefetcher cannot be snapshotted for
  /// warmup reuse (they still simulate normally). All in-tree
  /// prefetchers are cloneable.
  [[nodiscard]] virtual std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& /*l1*/, mem::Cache& /*l2*/) const {
    return nullptr;
  }

  [[nodiscard]] std::uint64_t candidates_emitted() const {
    return emitted_.value();
  }

  /// Register this prefetcher's counters as `prefix.name().metric`
  /// (ppf::obs). CompositePrefetcher forwards to its children instead so
  /// each engine shows up under its own name.
  virtual void register_obs(obs::MetricRegistry& reg,
                            const std::string& prefix) const;

  /// Register engine-specific structural invariants (ppf::check).
  /// Default registers nothing; CompositePrefetcher forwards to its
  /// children like register_obs.
  virtual void register_checks(check::CheckRegistry& reg,
                               const std::string& prefix) const;

 protected:
  void count_emitted(std::uint64_t n = 1) { emitted_.add(n); }

 private:
  Counter emitted_;
};

}  // namespace ppf::prefetch
