#include "core/engine.hpp"

#include "check/check.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace ppf::core {

void CoreEngine::register_obs(obs::MetricRegistry&) const {}

void CoreEngine::register_checks(check::CheckRegistry&) const {}

void CoreEngine::register_core_counters(obs::MetricRegistry& reg,
                                        const CoreResult& res) {
  // The engines' cumulative counters are never reset mid-run; the obs
  // layer windows them by subtracting the baseline sampled at warmup end.
  reg.add_counter("core.instructions", [&res] { return res.instructions; });
  reg.add_counter("core.loads", [&res] { return res.loads; });
  reg.add_counter("core.stores", [&res] { return res.stores; });
  reg.add_counter("core.branches", [&res] { return res.branches; });
  reg.add_counter("core.sw_prefetches", [&res] { return res.sw_prefetches; });
  reg.add_counter("core.mispredictions", [&res] { return res.mispredictions; });
  reg.add_counter("core.rob_full_stall_cycles",
                  [&res] { return res.rob_full_stall_cycles; });
  reg.add_counter("core.lsq_full_stall_cycles",
                  [&res] { return res.lsq_full_stall_cycles; });
  reg.add_counter("core.fetch_stall_cycles",
                  [&res] { return res.fetch_stall_cycles; });
  // Stage-kernel record counts (ppf.telemetry stages breakdown);
  // deterministic, so they are part of the obs signature.
  reg.add_counter("core.stage.retire.records",
                  [&res] { return res.stages.retire_records; });
  reg.add_counter("core.stage.probe.records",
                  [&res] { return res.stages.probe_records; });
  reg.add_counter("core.stage.fetch.records",
                  [&res] { return res.stages.fetch_records; });
  reg.add_counter("core.stage.memsys.records",
                  [&res] { return res.stages.memsys_records; });
}

void subtract_window(CoreResult& res, const CoreResult& snap) {
  res.instructions -= snap.instructions;
  res.loads -= snap.loads;
  res.stores -= snap.stores;
  res.branches -= snap.branches;
  res.sw_prefetches -= snap.sw_prefetches;
  res.mispredictions -= snap.mispredictions;
  res.rob_full_stall_cycles -= snap.rob_full_stall_cycles;
  res.lsq_full_stall_cycles -= snap.lsq_full_stall_cycles;
  res.fetch_stall_cycles -= snap.fetch_stall_cycles;
  res.stages.retire_records -= snap.stages.retire_records;
  res.stages.probe_records -= snap.stages.probe_records;
  res.stages.fetch_records -= snap.stages.fetch_records;
  res.stages.memsys_records -= snap.stages.memsys_records;
}

CoreResult CoreEngine::run(workload::TraceSource& trace,
                           std::uint64_t max_instructions,
                           std::uint64_t warmup_instructions,
                           const std::function<void()>& on_warmup_end) {
  bind(trace);
  if (warmup_instructions > 0) {
    run_until_dispatched(warmup_instructions);
    PPF_CHECK_MSG(dispatched() >= warmup_instructions,
                  "warmup longer than the whole run");
    if (on_warmup_end) on_warmup_end();
    begin_window();
  }
  return finish(max_instructions);
}

}  // namespace ppf::core
