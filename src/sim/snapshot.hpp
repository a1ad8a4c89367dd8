// Warmup snapshot reuse.
//
// A sweep typically runs many jobs whose configs agree on everything that
// shapes warmup-time behaviour and differ only in measurement-window
// parameters (max_instructions, energy prices). For such a group the
// warmup phase is byte-for-byte identical work: same trace records, same
// cache/filter/prefetcher state evolution. A WarmupSnapshot runs that
// phase once — core paused mid-cycle exactly at the warmup boundary, the
// same instant at which the cold path fires its warmup callback — and
// each job then deep-copies the paused machine (MemoryHierarchy rebinding
// copy + CoreEngine::clone_rebound) and runs only its measurement window.
// A snapshot pays a warmup plus one deep copy per resume, so it is worth
// building only when two or more jobs resume it; runlab::ExecCache makes
// that call. A job may read its window from a longer arena than the one
// the snapshot was built over: the generators are deterministic, so a
// regrown arena extends the old one record for record.
//
// Sharing rule: a snapshot made from config A may serve a job with config
// B iff warmup_key(A) == warmup_key(B). The key serialises the value of
// every warm row of sim::config_schema() (sim/config_apply.hpp) — every
// field except the measurement window, energy, obs and check settings and
// the diff_fail_at hook. In particular it includes the filter kind and
// its tables, because the filter gates which prefetches fill the caches
// *during warmup* and therefore shapes the warm state. A new SimConfig
// field must get a row in config_schema(), or snapshots will be wrongly
// shared across configs that differ in it; no test can catch a field
// that has no row.
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "sim/memory_hierarchy.hpp"
#include "sim/simulator.hpp"
#include "workload/materialized.hpp"

namespace ppf::sim {

/// A machine paused at the warmup boundary. Immutable once built: jobs
/// only ever clone it, so one snapshot may serve many threads.
class WarmupSnapshot {
 public:
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  /// The arena this snapshot was built over. A resumed job reads its
  /// window from this arena or from any longer one that extends it.
  [[nodiscard]] const std::shared_ptr<const workload::MaterializedTrace>&
  arena() const {
    return arena_;
  }
  /// Approximate resident bytes of the frozen machine (cache cap /
  /// eviction decisions). Derived from the config (SRAM arrays dominate),
  /// not measured — precision is irrelevant, monotonicity is not.
  [[nodiscard]] std::size_t estimated_bytes() const;

 private:
  friend std::shared_ptr<const WarmupSnapshot> make_warmup_snapshot(
      const SimConfig&, std::shared_ptr<const workload::MaterializedTrace>);
  friend SimResult run_from_snapshot(
      const SimConfig&, const WarmupSnapshot&,
      const std::shared_ptr<const workload::MaterializedTrace>&);

  WarmupSnapshot() = default;

  SimConfig cfg_;
  std::shared_ptr<const workload::MaterializedTrace> arena_;
  /// engine_'s trace, at the paused core's decode position.
  std::unique_ptr<workload::TraceCursor> cursor_;
  std::unique_ptr<MemoryHierarchy> mem_;
  std::unique_ptr<core::CoreEngine> engine_;  ///< paused at the boundary
  std::uint64_t warmup_ = 0;  ///< instructions dispatched during warmup
};

/// Serialised warmup-relevant configuration: equal keys <=> identical
/// warmup behaviour. The warm rows' values in table order, doubles
/// exact; see the file comment for the invariant this encodes.
[[nodiscard]] std::string warmup_key(const SimConfig& cfg);

/// Run the warmup phase of `cfg` over `arena` once and freeze the machine
/// at the boundary. Returns nullptr when there is nothing to share:
/// warmup is inactive (warmup_instructions == 0 or >= max_instructions)
/// or the arena is too short to cover warmup. Cloneability is not probed
/// here: a filter or prefetcher without clone_rebound makes
/// run_from_snapshot throw std::runtime_error naming it.
[[nodiscard]] std::shared_ptr<const WarmupSnapshot> make_warmup_snapshot(
    const SimConfig& cfg,
    std::shared_ptr<const workload::MaterializedTrace> arena);

/// Clone the paused machine and run the measurement window of `cfg`,
/// reading it from `arena`: the snapshot's own arena or a longer one of
/// the same trace (MaterializedTrace::extends); anything else fails a
/// PPF_CHECK. `cfg` must satisfy warmup_key(cfg) ==
/// warmup_key(snap.config()); max_instructions and energy may differ.
/// Produces byte-identical SimResults to Simulator::run on `arena`
/// (guarded by tests/sim/snapshot_test.cpp).
[[nodiscard]] SimResult run_from_snapshot(
    const SimConfig& cfg, const WarmupSnapshot& snap,
    const std::shared_ptr<const workload::MaterializedTrace>& arena);

}  // namespace ppf::sim
