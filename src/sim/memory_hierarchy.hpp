// The full memory system of Figure 3: L1 I/D, unified L2, memory bus,
// DRAM, the hardware prefetch generators, the prefetch queue, the
// optional dedicated prefetch buffer, and — between the prefetch sources
// and the queue — the cache pollution filter.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "check/check.hpp"
#include "common/flat_map.hpp"
#include "core/memory_iface.hpp"
#include "filter/filter.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "common/stats.hpp"
#include "mem/mshr.hpp"
#include "mem/prefetch_buffer.hpp"
#include "mem/prefetch_queue.hpp"
#include "mem/victim_cache.hpp"
#include "obs/recorder.hpp"
#include "prefetch/composite.hpp"
#include "sim/classifier.hpp"
#include "sim/inflight_map.hpp"
#include "sim/sim_config.hpp"
#include "sim/taxonomy.hpp"

namespace ppf::sim {

class MemoryHierarchy final : public core::DataMemory, public core::InstMemory {
 public:
  /// `external_filter` (non-owning, may be null) replaces the
  /// config-selected filter — used by flows where the filter must outlive
  /// one run, e.g. the static filter's profile-then-measure phases.
  explicit MemoryHierarchy(const SimConfig& cfg,
                           filter::PollutionFilter* external_filter = nullptr);

  /// Deep copy for warmup-snapshot reuse: caches, DRAM, queues, the
  /// prefetchers and the pollution filter are all copied with their warm
  /// state, and every internal cross-reference (prefetcher -> cache,
  /// filter -> cache) is rebound to the copy's own components. Throws
  /// std::runtime_error when the hierarchy cannot be cloned: it holds an
  /// external (caller-owned) filter, or a prefetcher/filter that does not
  /// implement clone_rebound.
  MemoryHierarchy(const MemoryHierarchy& o);
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  // --- core::DataMemory ------------------------------------------------
  void begin_cycle(Cycle now) override;
  bool try_reserve_port(Cycle now) override;
  Cycle demand_access(Cycle now, Pc pc, Addr addr, bool is_store) override;
  void software_prefetch(Cycle now, Pc pc, Addr addr) override;
  void end_cycle(Cycle now) override;
  [[nodiscard]] bool quiescent() const override {
    // Everything else in the hierarchy (bus, DRAM, MSHRs, L2 port) is
    // event-driven; only the prefetch queue and carried-over port debt
    // do per-cycle work when the core is idle.
    return pq_.empty() && ports_borrowed_ == 0;
  }

  // --- core::InstMemory --------------------------------------------------
  Cycle fetch(Cycle now, Pc pc) override;

  /// End of run: drain caches/buffer so still-resident prefetches are
  /// classified, exactly once. Safe to call once only.
  void finalize();

  /// End-of-warmup statistics reset. Cache contents, the filter's history
  /// table, and prefetcher state are all kept warm; only counters clear.
  void reset_stats();

  // --- observers ---------------------------------------------------------
  [[nodiscard]] const mem::Cache& l1d() const { return l1d_; }
  [[nodiscard]] const mem::Cache& l1i() const { return l1i_; }
  [[nodiscard]] const mem::Cache& l2() const { return l2_; }
  [[nodiscard]] const mem::Bus& bus() const { return bus_; }
  [[nodiscard]] const mem::Dram& dram() const { return dram_; }
  [[nodiscard]] const mem::PrefetchQueue& prefetch_queue() const { return pq_; }
  [[nodiscard]] const mem::PrefetchBuffer* prefetch_buffer() const {
    return buffer_.get();
  }
  [[nodiscard]] const mem::VictimCache* victim_cache() const {
    return victim_.get();
  }
  [[nodiscard]] const mem::MshrFile& mshr() const { return mshr_; }
  /// Demand-load latency distribution (16-cycle buckets).
  [[nodiscard]] const Histogram& load_latency() const {
    return load_latency_;
  }
  [[nodiscard]] const PrefetchClassifier& classifier() const {
    return classifier_;
  }
  [[nodiscard]] const TaxonomyTracker& taxonomy() const { return taxonomy_; }
  [[nodiscard]] const filter::PollutionFilter& filter() const {
    return *active_filter_;
  }
  [[nodiscard]] filter::PollutionFilter& mutable_filter() {
    return *active_filter_;
  }
  [[nodiscard]] std::uint64_t demand_l1_accesses() const {
    return demand_accesses_;
  }
  [[nodiscard]] std::uint64_t prefetch_l1_fills() const {
    return prefetch_l1_fills_;
  }
  /// Rejected prefetches later proven useful by a demand miss.
  [[nodiscard]] std::uint64_t filter_recoveries() const { return recovered_; }

  /// Attach an observation recorder (non-owning; must outlive the runs
  /// it observes): registers every component's metrics and turns on
  /// lifecycle events + the per-cycle interval tick. Not copied by the
  /// clone constructor — each cloned run attaches its own recorder.
  void attach_obs(obs::Recorder& rec);
  [[nodiscard]] obs::Recorder* obs_recorder() const { return obs_; }

  /// Attach an invariant checker (non-owning; must outlive the run):
  /// registers every component's structural checks plus the
  /// cross-component conservation checks, and turns on the per-cycle
  /// cadence tick. Like the obs recorder, it is not copied by the clone
  /// constructor — each cloned run attaches its own checker.
  void attach_checks(check::Checker& chk);
  [[nodiscard]] check::Checker* checker() const { return chk_; }

  /// Test-only: mutable L1D access so checking tests can plant
  /// corruption (Cache::corrupt_line_for_test) and prove the checker
  /// reports it. Never used by the simulation itself.
  [[nodiscard]] mem::Cache& mutable_l1d_for_test() { return l1d_; }

 private:
  /// Fetch a line through the L2 (and memory beyond); optionally fill the
  /// L1. Returns the cycle the data is available.
  Cycle fetch_from_l2(Cycle now, Pc pc, Addr addr, bool is_prefetch,
                      bool fill_l1, const mem::FillInfo& info,
                      AccessType type);

  /// Route prefetch candidates through the pollution filter into the queue.
  void route_candidates(Cycle now,
                        std::span<const prefetch::PrefetchRequest> cands);

  /// Process one L1/buffer eviction: classify, feed the filter, write back.
  void handle_eviction(Cycle now, const mem::Eviction& ev);

  /// True if the line is resident anywhere a prefetch would be redundant.
  [[nodiscard]] bool line_resident(LineAddr line) const;

  /// Resolve in-flight fill timing for a line that hit in the L1.
  [[nodiscard]] Cycle inflight_ready(Cycle now, LineAddr line) const {
    return in_flight_.ready_at(now, line);
  }

  /// True while a fill for this line is still outstanding; completed
  /// entries behave exactly like absent ones.
  [[nodiscard]] bool line_in_flight(Cycle now, LineAddr line) const {
    return in_flight_.in_flight(now, line);
  }

  SimConfig cfg_;
  mem::Cache l1d_;
  mem::Cache l1i_;
  mem::Cache l2_;
  mem::Bus bus_;
  mem::Dram dram_;
  mem::PrefetchQueue pq_;
  std::unique_ptr<mem::PrefetchBuffer> buffer_;
  std::unique_ptr<mem::VictimCache> victim_;
  mem::MshrFile mshr_;
  Histogram load_latency_{16, 32};
  prefetch::CompositePrefetcher prefetcher_;
  std::unique_ptr<filter::PollutionFilter> owned_filter_;
  filter::PollutionFilter* active_filter_;  ///< owned_filter_ or external
  PrefetchClassifier classifier_;
  TaxonomyTracker taxonomy_;

  /// Record a rejected prefetch for possible recovery; check a demand
  /// miss against the recovery buffer.
  void note_rejected(Cycle now, const filter::PrefetchCandidate& c);
  void check_recovery(Cycle now, LineAddr line);

  /// Estimated L1D residence time of a line, from the fill-interval EMA.
  [[nodiscard]] Cycle estimated_residence() const;

  /// Lines whose fill has been initiated but whose data arrives later.
  InFlightMap in_flight_;

  /// FIFO buffer of recently rejected prefetches (line -> candidate).
  /// Entries are also bounded in *time*: a rejection only counts as
  /// "wrongly filtered" if the demand miss arrives within the line's
  /// estimated would-have-been L1 residence time — a demand that arrives
  /// later would have found the prefetched line already evicted, i.e. the
  /// prefetch really was bad.
  struct RejectedEntry {
    Pc trigger_pc = 0;
    PrefetchSource source = PrefetchSource::Software;
    Cycle reject_cycle = 0;
  };
  FlatHashMap<RejectedEntry> rejected_;
  std::deque<LineAddr> rejected_fifo_;
  std::uint64_t recovered_ = 0;
  Cycle last_l1_fill_cycle_ = 0;
  double ema_fill_interval_ = 16.0;
  Cycle l2_next_free_ = 0;

  std::uint32_t ports_left_ = 0;
  std::uint32_t ports_borrowed_ = 0;  ///< ports prefetches occupy next cycle

  std::uint64_t demand_accesses_ = 0;
  std::uint64_t prefetch_l1_fills_ = 0;
  bool finalized_ = false;

  /// Observation recorder (non-owning, null when obs is off — the whole
  /// instrumentation is then one pointer test per site).
  obs::Recorder* obs_ = nullptr;

  /// Prefetched lines resident (and therefore not yet classified) across
  /// the whole hierarchy: L1D + L2 PIB lines plus the dedicated buffer.
  [[nodiscard]] std::uint64_t unclassified_pib() const;

  /// Invariant checker (non-owning, null when check=off — the simulation
  /// then pays one pointer test per cycle).
  check::Checker* chk_ = nullptr;
  /// unclassified_pib() at checker attach / stats reset: the classifier
  /// counters start from zero at the warmup boundary while prefetched
  /// lines stay resident, so the conservation law needs this baseline.
  std::uint64_t baseline_unclassified_ = 0;

  std::vector<prefetch::PrefetchRequest> scratch_cands_;
};

/// Build the pollution filter selected by the config (a registry key).
/// `l1` is needed by victim-probing filters (filter=deadblock) and must
/// outlive the returned filter. Throws std::invalid_argument for an
/// unknown key, naming the valid registry values.
std::unique_ptr<filter::PollutionFilter> make_filter(const SimConfig& cfg,
                                                     const mem::Cache& l1);

}  // namespace ppf::sim
