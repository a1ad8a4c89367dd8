// Warmup-snapshot reuse must be invisible in the results: resuming a
// cloned post-warmup machine has to produce the exact SimResult the cold
// path produces on the same records. These tests are the guard the
// optimisation ships behind.
#include "sim/snapshot.hpp"

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "filter/filter.hpp"
#include "sim/memory_hierarchy.hpp"
#include "sim/simulator.hpp"
#include "sim_result_eq.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::sim {
namespace {

std::shared_ptr<const workload::MaterializedTrace> arena_for(
    const char* bench, std::uint64_t seed, std::size_t records) {
  auto src = workload::make_benchmark(bench, seed);
  return workload::materialize(*src, records);
}

SimConfig quick_cfg(std::string kind) {
  SimConfig cfg;
  cfg.max_instructions = 60'000;
  cfg.warmup_instructions = 20'000;
  cfg.filter = kind;
  return cfg;
}

class SnapshotFilterTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotFilterTest, WarmPathMatchesColdPathExactly) {
  const SimConfig cfg = quick_cfg(GetParam());
  const auto arena = arena_for("mcf", 7, 100'000);

  workload::TraceCursor cold_cursor(arena);
  const SimResult cold = Simulator(cfg).run(cold_cursor);

  const auto snap = make_warmup_snapshot(cfg, arena);
  ASSERT_NE(snap, nullptr);
  const SimResult warm = run_from_snapshot(cfg, *snap, arena);

  expect_identical(cold, warm);
}

INSTANTIATE_TEST_SUITE_P(AllFilters, SnapshotFilterTest,
                         ::testing::Values("none",
                                           "pa",
                                           "pc",
                                           "static",
                                           "adaptive",
                                           "deadblock"));

TEST(Snapshot, DataflowCoreMatchesColdPath) {
  SimConfig cfg = quick_cfg("pa");
  cfg.core_model = CoreModel::Dataflow;
  const auto arena = arena_for("em3d", 3, 100'000);

  workload::TraceCursor cold_cursor(arena);
  const SimResult cold = Simulator(cfg).run(cold_cursor);

  const auto snap = make_warmup_snapshot(cfg, arena);
  ASSERT_NE(snap, nullptr);
  const SimResult warm = run_from_snapshot(cfg, *snap, arena);

  expect_identical(cold, warm);
}

TEST(Snapshot, OneSnapshotServesDifferentWindowLengths) {
  const SimConfig base = quick_cfg("pc");
  const auto arena = arena_for("gap", 11, 160'000);
  const auto snap = make_warmup_snapshot(base, arena);
  ASSERT_NE(snap, nullptr);

  for (std::uint64_t max : {40'000ULL, 120'000ULL}) {
    SimConfig cfg = base;
    cfg.max_instructions = max;
    workload::TraceCursor cold_cursor(arena);
    const SimResult cold = Simulator(cfg).run(cold_cursor);
    const SimResult warm = run_from_snapshot(cfg, *snap, arena);
    expect_identical(cold, warm);
  }
}

// A snapshot built over a short arena resumes over a longer arena of the
// same (bench, seed) — what runlab does after regrowing an arena for a
// longer job — exactly as the cold path runs on the longer arena. The
// tiny case ends the short arena inside the dataflow core's 64-record
// read-ahead at the pause, so the clone must find more records past it.
struct RegrowCase {
  const char* name;
  CoreModel model;
  std::uint64_t warmup;
  std::uint64_t short_window;
};

void PrintTo(const RegrowCase& c, std::ostream* os) { *os << c.name; }

class SnapshotRegrowTest : public ::testing::TestWithParam<RegrowCase> {};

TEST_P(SnapshotRegrowTest, ResumeOverLongerArenaMatchesColdPath) {
  const RegrowCase& c = GetParam();
  SimConfig base = quick_cfg("pc");
  base.core_model = c.model;
  base.warmup_instructions = c.warmup;
  base.max_instructions = c.short_window;
  const auto short_arena = arena_for("gzip", 5, c.warmup + c.short_window);
  const auto snap = make_warmup_snapshot(base, short_arena);
  ASSERT_NE(snap, nullptr);

  SimConfig cfg = base;
  cfg.max_instructions = 60'000;
  const auto long_arena = arena_for("gzip", 5, c.warmup + 60'000);
  workload::TraceCursor cold_cursor(long_arena);
  const SimResult cold = Simulator(cfg).run(cold_cursor);
  expect_identical(cold, run_from_snapshot(cfg, *snap, long_arena));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SnapshotRegrowTest,
    ::testing::Values(
        RegrowCase{"batched", CoreModel::Occupancy, 20'000, 30'000},
        RegrowCase{"dataflow", CoreModel::Dataflow, 20'000, 30'000},
        RegrowCase{"batched_tiny", CoreModel::Occupancy, 20, 30},
        RegrowCase{"dataflow_tiny", CoreModel::Dataflow, 20, 30}),
    [](const ::testing::TestParamInfo<RegrowCase>& info) {
      return std::string(info.param.name);
    });

TEST(SnapshotDeathTest, ResumeOverAnotherTraceOrShorterArenaFails) {
  const SimConfig cfg = quick_cfg("pa");
  const auto arena = arena_for("mcf", 7, 80'000);
  const auto snap = make_warmup_snapshot(cfg, arena);
  ASSERT_NE(snap, nullptr);
  const auto resume_over = [&](const char* bench, std::uint64_t seed,
                               std::size_t records) {
    (void)run_from_snapshot(cfg, *snap, arena_for(bench, seed, records));
  };
  EXPECT_DEATH(resume_over("mcf", 8, 80'000), "different trace");
  EXPECT_DEATH(resume_over("em3d", 7, 80'000), "different trace");
  EXPECT_DEATH(resume_over("mcf", 7, 79'999), "shorter");
}

TEST(Snapshot, InactiveWarmupYieldsNoSnapshot) {
  SimConfig cfg = quick_cfg("pa");
  const auto arena = arena_for("mcf", 1, 80'000);

  cfg.warmup_instructions = 0;
  EXPECT_EQ(make_warmup_snapshot(cfg, arena), nullptr);

  // Warmup >= max disables warmup on the cold path; no boundary to share.
  cfg.warmup_instructions = cfg.max_instructions;
  EXPECT_EQ(make_warmup_snapshot(cfg, arena), nullptr);

  // Arena shorter than the warmup cannot reach the boundary.
  cfg = quick_cfg("pa");
  EXPECT_EQ(make_warmup_snapshot(cfg, arena_for("mcf", 1, 10'000)), nullptr);
}

TEST(Snapshot, ExternalFilterHierarchyRefusesToClone) {
  const SimConfig cfg = quick_cfg("none");
  filter::NullFilter external;
  MemoryHierarchy mem(cfg, &external);
  EXPECT_THROW(MemoryHierarchy copy(mem), std::runtime_error);
}

TEST(Snapshot, WarmupKeySeparatesWarmupRelevantConfigs) {
  const SimConfig base = quick_cfg("pa");

  SimConfig window_only = base;
  window_only.max_instructions *= 4;
  window_only.energy.l1_access *= 2.0;
  EXPECT_EQ(warmup_key(base), warmup_key(window_only));

  SimConfig other_filter = base;
  other_filter.filter = "pc";
  EXPECT_NE(warmup_key(base), warmup_key(other_filter));

  SimConfig other_degree = base;
  other_degree.nsp_degree = 1;
  EXPECT_NE(warmup_key(base), warmup_key(other_degree));

  SimConfig other_seed = base;
  other_seed.seed = base.seed + 1;
  EXPECT_NE(warmup_key(base), warmup_key(other_seed));
}

}  // namespace
}  // namespace ppf::sim
