#include "sim/experiment.hpp"

#include <gtest/gtest.h>

namespace ppf::sim {
namespace {

SimConfig tiny_cfg() {
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

TEST(Experiment, RunBenchmarkByName) {
  const SimResult r = run_benchmark(tiny_cfg(), "wave5");
  EXPECT_EQ(r.workload, "wave5");
  EXPECT_GT(r.core.instructions, 0u);
}

TEST(Experiment, ScenariosUseTheThreeFilters) {
  const ScenarioResults r = run_filter_scenarios(tiny_cfg(), "em3d");
  EXPECT_EQ(r.none.filter_name, "none");
  EXPECT_EQ(r.pa.filter_name, "pa");
  EXPECT_EQ(r.pc.filter_name, "pc");
  // Filters reject things; the baseline never does.
  EXPECT_EQ(r.none.filter_rejected, 0u);
  EXPECT_GT(r.pa.filter_rejected, 0u);
  EXPECT_GT(r.pc.filter_rejected, 0u);
  // And they remove bad prefetches relative to no filtering.
  EXPECT_LT(r.pa.bad_total(), r.none.bad_total());
  EXPECT_LT(r.pc.bad_total(), r.none.bad_total());
}

TEST(Experiment, StaticFilterRunsTwoPhases) {
  const SimResult r = run_static_filter(tiny_cfg(), "em3d");
  EXPECT_EQ(r.filter_name, "static");
  // The frozen profile must actually reject something on em3d, whose
  // prefetches are mostly ineffective.
  EXPECT_GT(r.filter_rejected, 0u);
}

TEST(Experiment, IdenticalConfigsReproduce) {
  const SimResult a = run_benchmark(tiny_cfg(), "gap");
  const SimResult b = run_benchmark(tiny_cfg(), "gap");
  EXPECT_EQ(a.core.cycles, b.core.cycles);
  EXPECT_EQ(a.bad_total(), b.bad_total());
}

}  // namespace
}  // namespace ppf::sim
