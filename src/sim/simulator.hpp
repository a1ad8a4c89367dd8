// Top-level simulation driver: wires a workload trace, the OoO core, and
// the memory hierarchy together and collects one SimResult.
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "sim/classifier.hpp"
#include "sim/sim_config.hpp"
#include "sim/energy.hpp"
#include "sim/taxonomy.hpp"
#include "workload/trace.hpp"

namespace ppf::sim {

/// Everything a paper figure needs from one run.
struct SimResult {
  std::string workload;
  std::string filter_name;

  core::CoreResult core;

  // Demand miss statistics (loads + stores at L1D; demand at L2).
  std::uint64_t l1d_demand_accesses = 0;
  std::uint64_t l1d_demand_misses = 0;
  std::uint64_t l2_demand_accesses = 0;
  std::uint64_t l2_demand_misses = 0;

  SourceBreakdown prefetch_issued;
  SourceBreakdown prefetch_filtered;
  SourceBreakdown prefetch_good;
  SourceBreakdown prefetch_bad;
  std::uint64_t prefetch_squashed = 0;

  // Traffic accounting (Figure 2): L1 accesses from the program vs from
  // the prefetch machinery, and bus transfers attributable to prefetches.
  std::uint64_t l1_normal_traffic = 0;
  std::uint64_t l1_prefetch_traffic = 0;
  std::uint64_t bus_transfers = 0;
  std::uint64_t bus_prefetch_transfers = 0;
  std::uint64_t bus_busy_cycles = 0;

  std::uint64_t filter_admitted = 0;
  std::uint64_t filter_rejected = 0;
  std::uint64_t filter_recoveries = 0;

  /// Memory-system energy estimate (see sim/energy.hpp).
  EnergyBreakdown energy;
  /// Energy-delay product in nJ x cycles (lower is better).
  [[nodiscard]] double edp() const {
    return energy.total_nj() * static_cast<double>(core.cycles);
  }

  double avg_load_latency = 0.0;   ///< mean demand-load latency (cycles)
  std::uint64_t mshr_stalls = 0;   ///< misses delayed by a full MSHR file
  std::uint64_t victim_hits = 0;   ///< L1 misses served by the victim cache

  /// Srinivasan-taxonomy view of the issued prefetches (when enabled).
  TaxonomyCounts taxonomy;

  /// Full observability record (events, time series, final metrics) when
  /// the run had cfg.obs.enabled; null otherwise. shared_ptr so copying a
  /// SimResult (runlab aggregation) stays cheap.
  std::shared_ptr<const obs::RunObservation> observation;

  [[nodiscard]] double ipc() const { return core.ipc(); }
  [[nodiscard]] double l1d_miss_rate() const;
  [[nodiscard]] double l2_miss_rate() const;
  [[nodiscard]] std::uint64_t good_total() const {
    return prefetch_good.total();
  }
  [[nodiscard]] std::uint64_t bad_total() const { return prefetch_bad.total(); }
  [[nodiscard]] double bad_good_ratio() const;
  /// Prefetch share of L1 traffic (Figure 2's ratio).
  [[nodiscard]] double prefetch_traffic_ratio() const;
};

class MemoryHierarchy;

/// The timing model cfg.core_model selects, driving `mem`: DataflowCore,
/// or the occupancy model (core::OooCore) instantiated on the concrete
/// hierarchy.
[[nodiscard]] std::unique_ptr<core::CoreEngine> make_sim_engine(
    const SimConfig& cfg, MemoryHierarchy& mem);

/// Fault-injection test hook: throws std::runtime_error when
/// cfg.diff_fail_at is non-zero and the run would dispatch at least that
/// many instructions (warmup included). Called on entry by both
/// Simulator::run and run_from_snapshot; see SimConfig::diff_fail_at.
void maybe_inject_fault(const SimConfig& cfg);

/// Finalize `mem` (drain + classify resident prefetches) and assemble the
/// SimResult for a finished run. Shared by the cold path (Simulator::run)
/// and the warmup-snapshot path (run_from_snapshot) so both produce
/// results through identical code.
SimResult collect_result(const SimConfig& cfg, MemoryHierarchy& mem,
                         const core::CoreResult& core, std::string workload);

class Simulator {
 public:
  explicit Simulator(SimConfig cfg);

  /// Run `trace` through a fresh core + hierarchy.
  /// `external_filter` (optional, non-owning) substitutes the filter.
  SimResult run(workload::TraceSource& trace,
                filter::PollutionFilter* external_filter = nullptr);

  [[nodiscard]] const SimConfig& config() const { return cfg_; }

 private:
  SimConfig cfg_;
};

}  // namespace ppf::sim
