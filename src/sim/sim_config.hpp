// Whole-machine configuration, defaulting to the paper's Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "core/engine.hpp"
#include "filter/adaptive_filter.hpp"
#include "filter/deadblock_filter.hpp"
#include "filter/filter.hpp"
#include "filter/perceptron_filter.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "obs/recorder.hpp"
#include "prefetch/pmp.hpp"
#include "sim/energy.hpp"

namespace ppf::sim {

/// Which timing model drives the cycle loop.
enum class CoreModel : std::uint8_t {
  Occupancy,  ///< OooCore: statistical dependences + serial chase chains
  Dataflow,   ///< DataflowCore: true register dependences from the trace
};

inline const char* to_string(CoreModel m) {
  switch (m) {
    case CoreModel::Occupancy: return "occupancy";
    case CoreModel::Dataflow: return "dataflow";
  }
  PPF_ASSERT_MSG(false, "unhandled CoreModel");
  return "?";
}

struct SimConfig {
  core::CoreConfig core;
  CoreModel core_model = CoreModel::Occupancy;

  mem::CacheConfig l1d{.name = "L1D",
                       .size_bytes = 8 * 1024,
                       .line_bytes = 32,
                       .associativity = 1,
                       .latency = 1,
                       .ports = 3};
  mem::CacheConfig l1i{.name = "L1I",
                       .size_bytes = 8 * 1024,
                       .line_bytes = 32,
                       .associativity = 1,
                       .latency = 1,
                       .ports = 1};
  mem::CacheConfig l2{.name = "L2",
                      .size_bytes = 512 * 1024,
                      .line_bytes = 32,
                      .associativity = 4,
                      .latency = 15,
                      .ports = 1};
  mem::BusConfig bus;
  mem::DramConfig dram;

  std::size_t prefetch_queue_entries = 64;

  /// Outstanding DRAM fills (memory-side MSHRs). 0 = unlimited.
  std::size_t mshr_entries = 8;

  /// Jouppi victim cache between L1D and L2 (0 = none, the paper's
  /// machine). Catches conflict evictions — including pollution victims.
  std::size_t victim_cache_entries = 0;

  /// Prefetch into the L2 only, leaving the L1 untouched — the classic
  /// structural alternative to L1 pollution control. PIB/RIB tracking
  /// and filter feedback then operate on L2 lines.
  bool prefetch_to_l2 = false;

  /// Section 5.5: route prefetches into a dedicated fully-associative
  /// buffer probed in parallel with the L1 instead of filling the L1.
  bool use_prefetch_buffer = false;
  std::size_t prefetch_buffer_entries = 16;

  /// Hardware prefetchers, by registry key (ppf::registry), in the order
  /// they run. The paper's machine is {"nsp", "sdp"}; "stride",
  /// "stream_buffer", "markov" and "pmp" are extensions. Order matters
  /// for determinism (candidates are routed in generator order) and is
  /// part of warmup_key.
  std::vector<std::string> prefetchers = {"nsp", "sdp"};
  /// Lines prefetched per NSP trigger. 2 = the "aggressive" setting the
  /// paper's motivation assumes; 1 = classic tagged next-line.
  unsigned nsp_degree = 2;
  bool enable_sw_prefetch = true;

  /// Pollution filter, by registry key ("none", "pa", "pc", "static",
  /// "adaptive", "deadblock", "perceptron", or anything registered via
  /// registry::register_filter).
  std::string filter = "none";
  filter::HistoryTableConfig history;
  filter::AdaptiveConfig adaptive;
  filter::DeadBlockConfig deadblock;
  filter::PerceptronConfig perceptron;
  prefetch::PmpConfig pmp;

  /// Capacity of the rejected-prefetch recovery buffer. A demand miss to
  /// a recently rejected line proves the filter wrong and trains the
  /// history table back toward "good" (the mechanism of the authors'
  /// journal follow-up, IEEE TC 2007; without it a rejected table entry
  /// can never receive feedback again and freezes). 0 disables.
  std::size_t filter_recovery_entries = 512;

  /// Per-event energy prices for the memory-system energy estimate.
  EnergyConfig energy;

  /// Observability (ppf::obs): metric registry, lifecycle trace, and
  /// interval timeseries. Never affects simulated behaviour, so it is
  /// excluded from warmup_key (snapshots are shared across obs
  /// settings) and from the deterministic result payloads.
  obs::ObsConfig obs;

  /// Invariant checking (ppf::check): per-component structural checks
  /// swept at a configurable cadence. Like obs, checks never affect
  /// simulated behaviour (they only read state), so the check config is
  /// excluded from warmup_key and snapshots are shared across check
  /// settings.
  check::CheckConfig check;

  /// Track the full Srinivasan prefetch taxonomy (useful / useful-
  /// polluting / polluting / useless) alongside the paper's good/bad
  /// classification. Analysis-only; costs a couple of hash maps.
  bool enable_taxonomy = true;

  /// Fault-injection test hook (ppf::diff, runlab fault tests): when
  /// non-zero, Simulator::run / run_from_snapshot throw std::runtime_error
  /// before simulating iff the run would dispatch at least this many
  /// instructions (warmup included). Never fires during warmup-snapshot
  /// *construction*, and is deliberately excluded from sim::warmup_key,
  /// so a failing job can never poison an arena or snapshot shared with
  /// healthy jobs.
  std::uint64_t diff_fail_at = 0;

  std::uint64_t max_instructions = 2'000'000;
  /// Instructions executed before statistics reset. The paper runs 300M
  /// instructions, amortising cold misses; at our (configurable) scaled
  /// run lengths an explicit warmup keeps cold effects out of the stats.
  std::uint64_t warmup_instructions = 500'000;
  std::uint64_t seed = 42;

  /// Paper's Table 1 machine. `l1d_kb` selects the L1 size study
  /// (Section 5.2.2 uses 32KB with a 4-cycle latency).
  static SimConfig paper_default();

  /// Apply the paper's L1-size/latency pairing: 8KB -> 1 cycle,
  /// 16KB -> 2 cycles (Sec 5.2.1 discussion), 32KB -> 4 cycles.
  void set_l1d_size_kb(unsigned kb);

  /// Apply the paper's port/latency pairing for the 8KB L1 (Section 5.4):
  /// 3 ports -> 1 cycle, 4 ports -> 2 cycles, 5 ports -> 3 cycles.
  void set_l1d_ports(unsigned ports);

  /// True when `name` is in the `prefetchers` list.
  [[nodiscard]] bool prefetcher_enabled(std::string_view name) const;

  /// Add (append) or remove `name` from the `prefetchers` list; removal
  /// keeps the relative order of the remaining entries.
  void set_prefetcher(std::string_view name, bool enabled);
};

}  // namespace ppf::sim
