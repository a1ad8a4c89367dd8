// End-to-end invariant-checking contracts (CTest label: check, via the
// ppf_check_tests binary):
//
//   * the paper's Figure 1 benchmark grid runs violation-free under
//     check=paranoid for both filter tables (pa and pc) — the abort mode
//     turns any structural corruption into a thrown CheckViolation, so a
//     plain no-throw run IS the assertion,
//   * checking never perturbs the simulation: check=off and
//     check=paranoid produce identical SimResults, on both the cold and
//     the warmup-snapshot paths,
//   * the reporting path is proven live end to end by the check_fail_at
//     tripwire and by a deliberately corrupted cache line, both caught
//     with the component path, cycle, and invariant ID intact.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/check.hpp"
#include "filter/history_table.hpp"
#include "sim/memory_hierarchy.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

#include "../sim/sim_result_eq.hpp"

namespace {

using namespace ppf;

sim::SimConfig grid_config(std::string kind) {
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 15'000;
  cfg.filter = kind;
  cfg.check.mode = check::CheckMode::Paranoid;
  cfg.check.period = 2'000;
  return cfg;
}

sim::SimResult run_once(const sim::SimConfig& cfg, const std::string& bench,
                        bool warmup_share = false) {
  auto src = workload::make_benchmark(bench, cfg.seed);
  const std::uint64_t warmup =
      cfg.warmup_instructions < cfg.max_instructions ? cfg.warmup_instructions
                                                     : 0;
  const auto arena = workload::materialize(*src, cfg.max_instructions + warmup);
  if (warmup_share) {
    const auto snap = sim::make_warmup_snapshot(cfg, arena);
    EXPECT_NE(snap, nullptr);
    if (snap != nullptr) return sim::run_from_snapshot(cfg, *snap, arena);
  }
  workload::TraceCursor cursor(arena);
  return sim::Simulator(cfg).run(cursor);
}

TEST(CheckIntegration, Fig1GridRunsViolationFreeUnderParanoid) {
  for (const std::string& bench : workload::benchmark_names()) {
    for (const std::string kind :
         {"pa", "pc"}) {
      const sim::SimConfig cfg = grid_config(kind);
      sim::SimResult r;
      EXPECT_NO_THROW(r = run_once(cfg, bench))
          << bench << "/" << kind;
      EXPECT_EQ(r.core.instructions, cfg.max_instructions)
          << bench << "/" << kind;
    }
  }
}

TEST(CheckIntegration, HierarchyModesRunViolationFreeUnderParanoid) {
  // The conservation law (issued == good + bad + still-resident) must
  // hold in every prefetch-placement mode, not just the default L1 fill.
  for (const char* mode :
       {"buffer", "l2", "victim", "unlimited_mshr", "dataflow"}) {
    sim::SimConfig cfg = grid_config("pc");
    if (std::string(mode) == "buffer") cfg.use_prefetch_buffer = true;
    if (std::string(mode) == "l2") cfg.prefetch_to_l2 = true;
    if (std::string(mode) == "victim") cfg.victim_cache_entries = 8;
    if (std::string(mode) == "unlimited_mshr") cfg.mshr_entries = 0;
    if (std::string(mode) == "dataflow") {
      cfg.core_model = sim::CoreModel::Dataflow;
    }
    EXPECT_NO_THROW(run_once(cfg, "mcf")) << mode;
  }
}

TEST(CheckIntegration, ParanoidCheckingIsInvisibleInResults) {
  for (const char* bench : {"mcf", "em3d"}) {
    sim::SimConfig off = grid_config("pc");
    off.check.mode = check::CheckMode::Off;
    const sim::SimResult plain = run_once(off, bench);
    const sim::SimResult checked =
        run_once(grid_config("pc"), bench);
    sim::expect_identical(plain, checked);
  }
}

TEST(CheckIntegration, SnapshotPathIsCheckedAndIdenticalToCold) {
  const sim::SimConfig cfg = grid_config("pa");
  const sim::SimResult cold = run_once(cfg, "mcf");
  const sim::SimResult warm = run_once(cfg, "mcf", /*warmup_share=*/true);
  sim::expect_identical(cold, warm);
}

TEST(CheckIntegration, TripwireSurfacesThroughTheSimulator) {
  sim::SimConfig cfg = grid_config("pc");
  cfg.check.period = 100;
  cfg.check.fail_at = 1'000;
  try {
    run_once(cfg, "mcf");
    FAIL() << "tripwire should have aborted the run";
  } catch (const check::CheckViolation& v) {
    EXPECT_EQ(v.failure().component, "checker");
    EXPECT_EQ(v.failure().invariant, "checker.tripwire");
    EXPECT_GE(v.failure().cycle, 1'000u);
  }
}

TEST(CheckIntegration, CorruptedCacheLineIsCaughtWithFullContext) {
  sim::SimConfig cfg;  // Table 1 defaults, no prefetchers needed
  cfg.prefetchers.clear();
  cfg.enable_sw_prefetch = false;
  sim::MemoryHierarchy mem(cfg);

  check::Checker chk(check::CheckConfig{check::CheckMode::Final, 10'000, 0});
  chk.set_abort_on_failure(false);
  mem.attach_checks(chk);

  mem.begin_cycle(0);
  (void)mem.demand_access(0, 0x400000, 0x1000, false);
  mem.end_cycle(0);
  chk.sweep(500);
  EXPECT_TRUE(chk.failures().empty());

  // RIB set without PIB: a referenced-bit on a line never marked as a
  // prefetch — state no legal transition sequence can reach.
  mem.mutable_l1d_for_test().corrupt_line_for_test(0x1000, /*pib=*/false,
                                                   /*rib=*/true);
  chk.sweep(777);
  ASSERT_FALSE(chk.failures().empty());
  const check::CheckFailure& f = chk.failures().front();
  EXPECT_EQ(f.component, "l1d");
  EXPECT_EQ(f.invariant, "cache.rib_implies_pib");
  EXPECT_EQ(f.cycle, 777u);
}

TEST(CheckIntegration, AbortModeThrowsOnCorruption) {
  sim::SimConfig cfg;
  cfg.prefetchers.clear();
  cfg.enable_sw_prefetch = false;
  sim::MemoryHierarchy mem(cfg);
  check::Checker chk(check::CheckConfig{check::CheckMode::Final, 10'000, 0});
  mem.attach_checks(chk);
  mem.begin_cycle(0);
  (void)mem.demand_access(0, 0x400000, 0x1000, false);
  mem.end_cycle(0);
  mem.mutable_l1d_for_test().corrupt_line_for_test(0x1000, false, true);
  EXPECT_THROW(chk.sweep(1), check::CheckViolation);
}

TEST(CheckIntegration, TinyAliasedHistoryTableStaysWellFormed) {
  // Section 5.3's small-table regime: many keys alias onto few counters.
  // Structural invariants (power-of-two size, counters in width range)
  // must survive heavy aliased training.
  filter::HistoryTableConfig tcfg;
  tcfg.entries = 4;
  tcfg.counter_bits = 2;
  filter::HistoryTable table(tcfg);
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    table.update(key, (key % 3) == 0);
    (void)table.predict_good(key * 7);
  }
  check::CheckRegistry reg;
  table.register_checks(reg, "table");
  std::vector<check::CheckFailure> out;
  reg.run(0, out);
  EXPECT_TRUE(out.empty());
}

TEST(CheckIntegration, AliasedTableEndToEndUnderParanoid) {
  for (const std::string kind :
       {"pa", "pc"}) {
    sim::SimConfig cfg = grid_config(kind);
    cfg.history.entries = 16;  // thousands of lines alias onto 16 counters
    EXPECT_NO_THROW(run_once(cfg, "mcf")) << kind;
  }
}

}  // namespace
