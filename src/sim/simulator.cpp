#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "core/dataflow_core.hpp"
#include "core/ooo_core.hpp"
#include "sim/memory_hierarchy.hpp"

namespace ppf::sim {

void maybe_inject_fault(const SimConfig& cfg) {
  if (cfg.diff_fail_at == 0) return;
  const std::uint64_t total = cfg.max_instructions + cfg.active_warmup();
  if (total >= cfg.diff_fail_at) {
    throw std::runtime_error("diff_fail_at tripwire: injected fault (run of " +
                             std::to_string(total) +
                             " instructions >= " +
                             std::to_string(cfg.diff_fail_at) + ")");
  }
}

double SimResult::l1d_miss_rate() const {
  return ratio(l1d_demand_misses, l1d_demand_accesses);
}

double SimResult::l2_miss_rate() const {
  return ratio(l2_demand_misses, l2_demand_accesses);
}

double SimResult::bad_good_ratio() const {
  return ratio(bad_total(), good_total());
}

double SimResult::prefetch_traffic_ratio() const {
  return ratio(l1_prefetch_traffic, l1_normal_traffic);
}

std::unique_ptr<core::CoreEngine> make_sim_engine(const SimConfig& cfg,
                                                  MemoryHierarchy& mem) {
  if (cfg.core_model == CoreModel::Dataflow) {
    return std::make_unique<core::DataflowCore>(cfg.core, mem, mem);
  }
  return std::make_unique<core::OooCore<MemoryHierarchy>>(cfg.core, mem);
}

RunObservers attach_run_observers(const SimConfig& cfg, MemoryHierarchy& mem,
                                  core::CoreEngine& engine) {
  RunObservers o;
  if (cfg.obs.enabled) {
    o.rec = std::make_unique<obs::Recorder>(cfg.obs);
    mem.attach_obs(*o.rec);
    engine.register_obs(o.rec->registry());
  }
  if (cfg.check.mode != check::CheckMode::Off) {
    o.chk = std::make_unique<check::Checker>(cfg.check);
    mem.attach_checks(*o.chk);
    engine.register_checks(o.chk->registry());
  }
  // Heartbeats are independent of the obs switch: runlab progress wants
  // them even for plain (obs-off) jobs.
  if (cfg.obs.heartbeat_slot != nullptr) {
    engine.set_heartbeat(cfg.obs.heartbeat_slot);
  }
  return o;
}

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg)) {}

SimResult Simulator::run(workload::TraceSource& trace,
                         filter::PollutionFilter* external_filter) {
  maybe_inject_fault(cfg_);
  MemoryHierarchy mem(cfg_, external_filter);
  const auto engine = make_sim_engine(cfg_, mem);
  const RunObservers observers = attach_run_observers(cfg_, mem, *engine);
  const std::uint64_t warmup = cfg_.active_warmup();
  const auto on_warmup = [&mem] { mem.reset_stats(); };
  const core::CoreResult core = engine->run(
      trace, cfg_.max_instructions + warmup, warmup, on_warmup);
  return collect_result(cfg_, mem, core, trace.name());
}

SimResult collect_result(const SimConfig& cfg, MemoryHierarchy& mem,
                         const core::CoreResult& core, std::string workload) {
  mem.finalize();

  SimResult res;
  res.workload = std::move(workload);
  res.filter_name = mem.filter().name();
  res.core = core;

  const mem::Cache& l1d = mem.l1d();
  res.l1d_demand_accesses = l1d.hits(AccessType::Load) +
                            l1d.hits(AccessType::Store) +
                            l1d.misses(AccessType::Load) +
                            l1d.misses(AccessType::Store);
  res.l1d_demand_misses =
      l1d.misses(AccessType::Load) + l1d.misses(AccessType::Store);

  const mem::Cache& l2 = mem.l2();
  res.l2_demand_accesses = l2.hits(AccessType::Load) +
                           l2.hits(AccessType::Store) +
                           l2.misses(AccessType::Load) +
                           l2.misses(AccessType::Store);
  res.l2_demand_misses =
      l2.misses(AccessType::Load) + l2.misses(AccessType::Store);

  const PrefetchClassifier& cls = mem.classifier();
  res.prefetch_issued = cls.issued();
  res.prefetch_filtered = cls.filtered();
  res.prefetch_good = cls.good();
  res.prefetch_bad = cls.bad();
  res.prefetch_squashed = cls.squashed();

  res.l1_normal_traffic = mem.demand_l1_accesses();
  res.l1_prefetch_traffic = mem.prefetch_l1_fills();
  res.bus_transfers = mem.bus().transfers();
  res.bus_prefetch_transfers = mem.bus().prefetch_transfers();
  res.bus_busy_cycles = mem.bus().busy_cycles();

  res.filter_admitted = mem.filter().admitted();
  res.filter_rejected = mem.filter().rejected();
  res.filter_recoveries = mem.filter_recoveries();
  res.taxonomy = mem.taxonomy().counts();
  {
    EnergyEvents ev;
    ev.l1_accesses = mem.l1d().total_hits() + mem.l1d().total_misses() +
                     mem.l1d().fills() + mem.l1i().total_hits() +
                     mem.l1i().total_misses() + mem.l1i().fills();
    ev.l2_accesses =
        mem.l2().total_hits() + mem.l2().total_misses() + mem.l2().fills();
    ev.dram_accesses = mem.dram().reads() + mem.dram().writebacks();
    ev.bus_beats = mem.bus().busy_cycles() / cfg.bus.cycles_per_beat;
    ev.table_ops = mem.filter().admitted() + mem.filter().rejected() +
                   mem.classifier().good().total() +
                   mem.classifier().bad().total() + mem.filter_recoveries();
    res.energy = compute_energy(cfg.energy, ev);
  }
  res.avg_load_latency = mem.load_latency().mean();
  res.mshr_stalls = mem.mshr().stalls();
  res.victim_hits =
      mem.victim_cache() == nullptr ? 0 : mem.victim_cache()->hits();
  if (obs::Recorder* rec = mem.obs_recorder(); rec != nullptr) {
    // After finalize(): the drain-time eviction events are in the buffer
    // and the classifier totals are final, so counts reconcile exactly.
    res.observation =
        std::make_shared<obs::RunObservation>(rec->finish());
  }
  return res;
}

}  // namespace ppf::sim
