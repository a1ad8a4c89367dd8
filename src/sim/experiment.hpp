// Experiment driver: canned runs matching the paper's evaluation flows.
#pragma once

#include <string>

#include "sim/simulator.hpp"

namespace ppf::sim {

/// The one cold run of a config: streams the trace workload::make_benchmark
/// names (a benchmark or a mix) on workload seed cfg.seed, so identical
/// configs reproduce identical traces. filter=static runs the two-phase
/// flow below, profiled on the name's first program: the benchmark
/// itself, or program A of a mix.
SimResult run_benchmark(const SimConfig& cfg, const std::string& bench);

/// Two-phase static-filter flow (Srinivasan et al. [18]): profile a
/// program once with the filter recording outcomes, freeze the profile,
/// then measure `measure` filtered by the frozen profile.
SimResult run_static_filter(const SimConfig& cfg,
                            workload::TraceSource& profile,
                            workload::TraceSource& measure);

/// The three default evaluation scenarios of Section 5.2.
struct ScenarioResults {
  SimResult none;
  SimResult pa;
  SimResult pc;
};
ScenarioResults run_filter_scenarios(const SimConfig& base,
                                     const std::string& bench);

}  // namespace ppf::sim
