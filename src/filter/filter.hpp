// Pollution filter interface and the paper's two dynamic schemes.
//
// The filter sees every in-flight prefetch (hardware-generated or software)
// before it reaches the prefetch queue and decides whether to admit it;
// feedback arrives when a prefetched line leaves the L1 (or the dedicated
// prefetch buffer) with its PIB/RIB bits.
#pragma once

#include <cstdint>
#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "filter/history_table.hpp"

namespace ppf::mem {
class Cache;
}

namespace ppf::obs {
class MetricRegistry;
}
namespace ppf::check {
class CheckRegistry;
}

namespace ppf::filter {

/// A prefetch presented to the filter for an admit/reject decision.
struct PrefetchCandidate {
  LineAddr line = 0;
  Pc trigger_pc = 0;
  PrefetchSource source = PrefetchSource::Software;
};

/// Outcome of one prefetch, reported on eviction of the prefetched line.
struct FilterFeedback {
  LineAddr line = 0;
  Pc trigger_pc = 0;
  bool referenced = false;  ///< RIB at eviction time
  PrefetchSource source = PrefetchSource::Software;
};

class PollutionFilter {
 public:
  virtual ~PollutionFilter() = default;

  /// Decide whether this prefetch may be issued.
  bool admit(const PrefetchCandidate& c);

  /// Deliver PIB/RIB feedback from an evicted prefetched line.
  virtual void feedback(const FilterFeedback& f) = 0;

  /// Recovery feedback: a demand miss hit a line this filter recently
  /// rejected — decisive evidence the rejection was wrong. Defaults to
  /// ordinary feedback; table-based filters saturate the counter.
  virtual void recover(const FilterFeedback& f) { feedback(f); }

  [[nodiscard]] virtual const char* name() const = 0;

  /// Copy of this filter with all learned state, any cache reference
  /// rebound to `l1` (a cloned hierarchy's L1): the implicit copy of
  /// *this, with a cache pointer re-pointed. Returns nullptr when the
  /// filter does not support cloning — hierarchies holding such a filter
  /// cannot be snapshotted for warmup reuse (they still simulate
  /// normally). All in-tree filters are cloneable.
  [[nodiscard]] virtual std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache& /*l1*/) const {
    return nullptr;
  }

  [[nodiscard]] std::uint64_t admitted() const { return admitted_.value(); }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.value(); }

  /// Register the admit/reject counters as `prefix.metric` (ppf::obs).
  void register_obs(obs::MetricRegistry& reg, const std::string& prefix) const;

  /// Register scheme-specific structural invariants (ppf::check).
  /// Table-based filters check their history tables; stateless schemes
  /// inherit the default, which registers nothing.
  virtual void register_checks(check::CheckRegistry& reg,
                               const std::string& prefix) const;

  /// Reset the admit/reject counters (e.g. at end of warmup); the
  /// learned predictor state is deliberately kept.
  void reset_stats() {
    admitted_.reset();
    rejected_.reset();
  }

 protected:
  /// Scheme-specific decision; admit() wraps it with bookkeeping.
  virtual bool decide(const PrefetchCandidate& c) = 0;

 private:
  Counter admitted_;
  Counter rejected_;
};

/// Pass-through baseline: the "no filtering" configuration.
class NullFilter final : public PollutionFilter {
 public:
  void feedback(const FilterFeedback&) override {}
  [[nodiscard]] const char* name() const override { return "none"; }
  [[nodiscard]] std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache&) const override {
    return std::unique_ptr<PollutionFilter>(new NullFilter(*this));
  }

 protected:
  bool decide(const PrefetchCandidate&) override { return true; }
};

/// Per-Address filter: history table indexed by the prefetched line
/// address (cache-line offset already stripped by LineAddr).
class PaFilter final : public PollutionFilter {
 public:
  explicit PaFilter(HistoryTableConfig cfg);

  void feedback(const FilterFeedback& f) override;
  void recover(const FilterFeedback& f) override;
  [[nodiscard]] const char* name() const override { return "pa"; }
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const override;
  [[nodiscard]] const HistoryTable& table() const { return table_; }
  [[nodiscard]] std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache&) const override {
    return std::unique_ptr<PollutionFilter>(new PaFilter(*this));
  }

 protected:
  bool decide(const PrefetchCandidate& c) override;

 private:
  HistoryTable table_;
};

/// Program-Counter filter: history table indexed by the PC of the
/// instruction that triggered the prefetch, scaled by the instruction
/// size so consecutive instructions map to consecutive entries.
class PcFilter final : public PollutionFilter {
 public:
  /// `inst_bytes` is the fixed instruction size of the simulated ISA
  /// (4 for Alpha, the paper's target).
  explicit PcFilter(HistoryTableConfig cfg, unsigned inst_bytes = 4);

  void feedback(const FilterFeedback& f) override;
  void recover(const FilterFeedback& f) override;
  [[nodiscard]] const char* name() const override { return "pc"; }
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const override;
  [[nodiscard]] const HistoryTable& table() const { return table_; }
  [[nodiscard]] std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache&) const override {
    return std::unique_ptr<PollutionFilter>(new PcFilter(*this));
  }

 protected:
  bool decide(const PrefetchCandidate& c) override;

 private:
  [[nodiscard]] std::uint64_t key_of(Pc pc) const;

  HistoryTable table_;
  unsigned pc_shift_;
};

// Filter selection is by registry key ("none", "pa", "pc", "static",
// "adaptive", "deadblock", "perceptron", ...) — see registry/registry.hpp.
// Out-of-tree filters register under the same keys.

}  // namespace ppf::filter
