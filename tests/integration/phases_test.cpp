// The dynamic-adaptivity claim (paper, Related Work): when the working
// set changes at runtime — modelled as context switches between two
// programs — a frozen profile filter stops policing while the dynamic
// filter keeps learning.
#include <gtest/gtest.h>

#include "diff/signature.hpp"
#include "filter/static_filter.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"
#include "workload/interleaved.hpp"

namespace ppf::sim {
namespace {

std::unique_ptr<workload::InterleavedTrace> make_mix(std::uint64_t seed) {
  std::vector<std::unique_ptr<workload::TraceSource>> v;
  v.push_back(workload::make_benchmark("em3d", seed));
  v.push_back(workload::make_benchmark("mcf", seed + 1));
  return std::make_unique<workload::InterleavedTrace>(std::move(v), 50'000);
}

SimConfig mix_cfg() {
  SimConfig cfg;
  cfg.max_instructions = 300'000;
  cfg.warmup_instructions = 0;
  return cfg;
}

TEST(Phases, DynamicFilterPolicesBothProgramsFrozenProfileOnlyOne) {
  // Baseline: the unfiltered mix.
  SimConfig cfg = mix_cfg();
  auto mix0 = make_mix(42);
  Simulator s0(cfg);
  const SimResult none = s0.run(*mix0);
  ASSERT_GT(none.bad_total(), 1000u);

  // Static filter profiled on program A (em3d) only, then frozen.
  filter::StaticFilter frozen;
  {
    SimConfig pcfg = mix_cfg();
    auto profile = workload::make_benchmark("em3d", 42);
    Simulator sp(pcfg);
    (void)sp.run(*profile, &frozen);
  }
  frozen.freeze();
  auto mix1 = make_mix(42);
  Simulator s1(cfg);
  const SimResult stat = s1.run(*mix1, &frozen);

  // The mix's name runs the same flow: filter=static profiles its first
  // program.
  SimConfig named = mix_cfg();
  named.filter = "static";
  EXPECT_EQ(diff::result_signature(run_benchmark(named, "em3d+mcf/50000")),
            diff::result_signature(stat));

  // Dynamic PA filter on the same mix.
  cfg.filter = "pa";
  auto mix2 = make_mix(42);
  Simulator s2(cfg);
  const SimResult dyn = s2.run(*mix2);

  // Both filters remove bad prefetches relative to no filtering...
  EXPECT_LT(stat.bad_total(), none.bad_total());
  EXPECT_LT(dyn.bad_total(), none.bad_total());

  // ...but the frozen profile cannot reject anything it never profiled:
  // program B's sites (tagged address space 1) are all unseen-admit.
  // The dynamic filter rejects candidates from both programs.
  EXPECT_GT(stat.filter_rejected, 0u);
  EXPECT_GT(dyn.filter_rejected, 0u);
}

TEST(Phases, MixNameBuildsTheHandBuiltMix) {
  // Program i on workload seed 42 + i, switching every 50000
  // instructions: three switches and part of a fourth slice.
  auto named = workload::make_benchmark("em3d+mcf/50000", 42);
  auto built = make_mix(42);
  EXPECT_EQ(workload::collect(*named, 160'000),
            workload::collect(*built, 160'000));
  EXPECT_STREQ(named->name(), built->name());
}

TEST(Phases, InterleavedRunSatisfiesAccountingInvariants) {
  SimConfig cfg = mix_cfg();
  cfg.filter = "pc";
  auto mix = make_mix(7);
  Simulator s(cfg);
  const SimResult r = s.run(*mix);
  EXPECT_EQ(r.prefetch_issued.total(), r.good_total() + r.bad_total());
  EXPECT_GT(r.ipc(), 0.0);
  EXPECT_EQ(r.core.instructions, cfg.max_instructions);
}

}  // namespace
}  // namespace ppf::sim
