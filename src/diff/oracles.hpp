// ppf::diff — the oracle catalogue.
//
// An oracle is a property that must hold for (or across) simulation runs
// derived from one sampled ConfigPoint. Two families:
//
//  * equivalence oracles run the same logical simulation through two
//    execution paths that the codebase promises are interchangeable
//    (streaming vs arena, cold vs warmup snapshot, check off vs
//    paranoid, obs on vs off, 1 worker vs 8) and diff the full result
//    signatures byte-for-byte;
//  * metamorphic oracles run structurally related configurations and
//    assert the relation the structure implies (a none-filter run
//    rejects nothing, disabling every prefetcher zeroes every pollution
//    counter, doubling energy prices exactly doubles energy, growing the
//    L1 without changing its set count never adds demand misses).
//
// Every oracle has a stable dotted ID (diff.*) documented in
// docs/DIFF.md — the diff-oracle-docs lint rule keeps catalogue and
// documentation in sync.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "diff/lattice.hpp"
#include "diff/signature.hpp"
#include "sim/simulator.hpp"

namespace ppf::diff {

/// Result of evaluating one oracle against one point.
struct OracleOutcome {
  bool applicable = false;  ///< point met the oracle's preconditions
  bool ok = true;           ///< property held (meaningful when applicable)
  std::string detail;       ///< first divergence / violated relation
};

/// Shared per-point run state: oracles pull the baseline run (streaming,
/// obs off, checks off) from here so evaluating the whole catalogue
/// against one point simulates the baseline once, not once per oracle.
class OracleContext {
 public:
  explicit OracleContext(ConfigPoint point);

  [[nodiscard]] const ConfigPoint& point() const { return point_; }
  [[nodiscard]] const sim::SimConfig& config() const { return cfg_; }
  [[nodiscard]] bool is_static_filter() const;

  /// The baseline run (computed on first use, then cached).
  const sim::SimResult& baseline();

  /// Fresh cold run (sim::run_benchmark) of `cfg` over the point's
  /// benchmark. No caching.
  [[nodiscard]] sim::SimResult run_config(const sim::SimConfig& cfg) const;

  /// run_config of a mutated copy of the point's config.
  [[nodiscard]] sim::SimResult run_mutated(
      const std::function<void(sim::SimConfig&)>& mutate) const;

 private:
  ConfigPoint point_;
  sim::SimConfig cfg_;
  bool have_baseline_ = false;
  sim::SimResult baseline_;
};

/// One catalogue entry.
struct Oracle {
  std::string id;       ///< stable dotted ID, documented in docs/DIFF.md
  std::string summary;  ///< one-line description for `ppf_diff list=1`
  std::function<OracleOutcome(OracleContext&)> evaluate;
};

/// All production oracles, in stable evaluation order.
const std::vector<Oracle>& oracle_catalogue();

/// Synthetic tripwire oracle (`diff.tripwire`): flags any point carrying
/// an `nsp_degree` override. Only the harness's tripwire mode installs
/// it — it exists to prove, in tests and CI, that a planted bug is
/// caught, shrunk to the single guilty override, and reported.
Oracle tripwire_oracle();

}  // namespace ppf::diff
