#include "sim/experiment.hpp"

#include "filter/static_filter.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::sim {

SimResult run_benchmark(const SimConfig& cfg, const std::string& bench) {
  auto trace = workload::make_benchmark(bench, cfg.seed);
  if (cfg.filter == "static") {
    auto profile = workload::make_benchmark(
        workload::parse_benchmark_name(bench).programs.front(), cfg.seed);
    return run_static_filter(cfg, *profile, *trace);
  }
  return Simulator(cfg).run(*trace);
}

SimResult run_static_filter(const SimConfig& cfg,
                            workload::TraceSource& profile,
                            workload::TraceSource& measure) {
  filter::StaticFilter filt;
  // Phase 1: profile (admits everything, records outcomes).
  (void)Simulator(cfg).run(profile, &filt);
  filt.freeze();
  // Phase 2: measure under the frozen profile.
  return Simulator(cfg).run(measure, &filt);
}

ScenarioResults run_filter_scenarios(const SimConfig& base,
                                     const std::string& bench) {
  ScenarioResults r;
  SimConfig cfg = base;
  cfg.filter = "none";
  r.none = run_benchmark(cfg, bench);
  cfg.filter = "pa";
  r.pa = run_benchmark(cfg, bench);
  cfg.filter = "pc";
  r.pc = run_benchmark(cfg, bench);
  return r;
}

}  // namespace ppf::sim
