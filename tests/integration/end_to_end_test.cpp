// Cross-module invariants on full simulations: these hold for every
// workload/filter combination and catch accounting leaks between the
// core, hierarchy, classifier and filter.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::sim {
namespace {

struct Combo {
  std::string bench;
  std::string kind;
};

// Without a printer gtest dumps the object's bytes, string pointers
// included, into the listed test name, which then changes run to run.
void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.bench << '/' << c.kind;
}

class EndToEnd : public ::testing::TestWithParam<Combo> {};

TEST_P(EndToEnd, AccountingInvariantsHold) {
  SimConfig cfg;
  cfg.max_instructions = 80'000;
  cfg.warmup_instructions = 20'000;
  cfg.filter = GetParam().kind;
  const SimResult r = run_benchmark(cfg, GetParam().bench);

  // Timing sanity.
  EXPECT_EQ(r.core.instructions, cfg.max_instructions);
  EXPECT_GE(r.core.cycles, cfg.max_instructions / cfg.core.width);
  EXPECT_GT(r.ipc(), 0.0);
  EXPECT_LE(r.ipc(), static_cast<double>(cfg.core.width));

  // Every issued prefetch is classified exactly once (good or bad); the
  // warmup-boundary residents (prefetched before the statistics reset,
  // classified after) bound the slack by the L1 capacity plus buffer.
  const std::uint64_t classified = r.good_total() + r.bad_total();
  const std::uint64_t slack =
      cfg.l1d.num_lines() + cfg.prefetch_buffer_entries;
  EXPECT_GE(classified + 1, r.prefetch_issued.total() >= slack
                                ? r.prefetch_issued.total() - slack
                                : 0);
  EXPECT_LE(classified, r.prefetch_issued.total() + slack);

  // A filter only rejects when enabled.
  if (GetParam().kind == "none") {
    EXPECT_EQ(r.filter_rejected, 0u);
    EXPECT_EQ(r.prefetch_filtered.total(), 0u);
  }
  // Classifier's filtered view matches the filter's own count.
  EXPECT_EQ(r.prefetch_filtered.total(), r.filter_rejected);

  // Miss rates are proper fractions and the L2 sees at most the L1's
  // demand misses.
  EXPECT_LE(r.l1d_demand_misses, r.l1d_demand_accesses);
  EXPECT_LE(r.l2_demand_accesses, r.l1d_demand_misses);

  // Bus accounting: prefetch transfers never exceed total transfers.
  EXPECT_LE(r.bus_prefetch_transfers, r.bus_transfers);
}

std::vector<Combo> combos() {
  std::vector<Combo> out;
  for (const std::string& b : {std::string("bh"), std::string("em3d"),
                               std::string("gzip"), std::string("mcf")}) {
    for (auto k : {"none", "pa",
                   "pc", "adaptive"}) {
      out.push_back(Combo{b, k});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EndToEnd, ::testing::ValuesIn(combos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return info.param.bench + "_" + info.param.kind;
    });

TEST(EndToEndExtras, PrefetchBufferConfigurationRuns) {
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 10'000;
  cfg.use_prefetch_buffer = true;
  cfg.filter = "pa";
  const SimResult r = run_benchmark(cfg, "em3d");
  EXPECT_NEAR(static_cast<double>(r.prefetch_issued.total()),
              static_cast<double>(r.good_total() + r.bad_total()), 300.0);
  EXPECT_GT(r.ipc(), 0.0);
}

TEST(EndToEndExtras, ThirtyTwoKbConfigurationRuns) {
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 10'000;
  cfg.set_l1d_size_kb(32);
  EXPECT_EQ(cfg.l1d.latency, 4u);
  const SimResult r = run_benchmark(cfg, "wave5");
  EXPECT_GT(r.ipc(), 0.0);
}

TEST(EndToEndExtras, PortSweepMonotonicallyRelievesQueueing) {
  // More ports must never *increase* the number of filtered/queued
  // prefetch drops caused by port starvation (weak monotonicity on the
  // prefetch-issue side).
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 10'000;
  cfg.filter = "pa";
  cfg.set_l1d_ports(3);
  const SimResult p3 = run_benchmark(cfg, "em3d");
  cfg.set_l1d_ports(5);
  const SimResult p5 = run_benchmark(cfg, "em3d");
  EXPECT_GT(p3.ipc(), 0.0);
  EXPECT_GT(p5.ipc(), 0.0);
  // Both complete with full accounting (warmup slack bounded by L1 size).
  EXPECT_NEAR(static_cast<double>(p5.prefetch_issued.total()),
              static_cast<double>(p5.good_total() + p5.bad_total()), 300.0);
}

TEST(EndToEndExtras, StrideExtensionRuns) {
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 10'000;
  cfg.set_prefetcher("stride", true);
  cfg.filter = "pc";
  const SimResult r = run_benchmark(cfg, "wave5");
  // wave5's array sweeps are stride-friendly: the RPT must fire.
  EXPECT_GT(r.prefetch_issued.stride + r.prefetch_filtered.stride, 0u);
  EXPECT_NEAR(static_cast<double>(r.prefetch_issued.total()),
              static_cast<double>(r.good_total() + r.bad_total()), 300.0);
}

}  // namespace
}  // namespace ppf::sim
