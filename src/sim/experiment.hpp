// Experiment driver: canned runs matching the paper's evaluation flows.
#pragma once

#include <string>

#include "sim/simulator.hpp"

namespace ppf::sim {

/// Run one named benchmark under `cfg`. The workload seed is derived from
/// cfg.seed, so identical configs reproduce identical traces.
SimResult run_benchmark(const SimConfig& cfg, const std::string& bench);

/// Two-phase static-filter flow (Srinivasan et al. [18]): profile the
/// program once with the filter recording outcomes, freeze the profile,
/// then measure a second, identical run filtered by the frozen profile.
/// `profile` and `measure` must yield the same records.
SimResult run_static_filter(const SimConfig& cfg,
                            workload::TraceSource& profile,
                            workload::TraceSource& measure);

/// The two-phase flow over two fresh generators of benchmark `bench`.
SimResult run_static_filter(const SimConfig& cfg, const std::string& bench);

/// The three default evaluation scenarios of Section 5.2.
struct ScenarioResults {
  SimResult none;
  SimResult pa;
  SimResult pc;
};
ScenarioResults run_filter_scenarios(const SimConfig& base,
                                     const std::string& bench);

}  // namespace ppf::sim
