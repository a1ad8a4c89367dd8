// Fast throughput smoke test (CTest label: perf).
//
// Runs a small runlab batch through the full hot path — materialized
// arenas, in-place warmup, batched core loops — and prints the
// measured MIPS so CI logs carry a throughput trend line. It asserts
// only *structural* telemetry facts (instructions counted, caches
// exercised), never a MIPS floor: wall-clock thresholds on shared CI
// hardware produce flaky failures, and the committed
// BENCH_throughput.json baseline is the honest place for absolute
// numbers. Run it alone with `ctest --preset perf` or `ctest -L perf`.
#include <gtest/gtest.h>

#include <iostream>

#include "runlab/runner.hpp"
#include "sim/sim_config.hpp"

namespace {

using namespace ppf;

TEST(PerfSmoke, BatchReportsPositiveMipsThroughHotPath) {
  runlab::SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 60'000;
  spec.base.warmup_instructions = 20'000;
  spec.benchmarks = {"mcf", "em3d"};
  spec.filters = {"none", "pa",
                  "pc"};

  runlab::RunOptions opts;
  opts.workers = 2;
  const runlab::RunReport rep = runlab::run_sweep(spec, opts);

  ASSERT_EQ(rep.telemetry.failed_jobs, 0u);
  EXPECT_EQ(rep.telemetry.total_jobs, 6u);
  // Window instructions only: 6 jobs x 60k measured instructions.
  EXPECT_EQ(rep.telemetry.instructions, 6u * 60'000u);
  EXPECT_GT(rep.telemetry.mips, 0.0);
  EXPECT_GT(rep.telemetry.wall_ms, 0.0);

  // The hot path must actually be exercised: one arena per distinct
  // (benchmark, seed). Each of the 6 warmup keys has one job, so no
  // snapshot is built and every job warms up in place on its arena.
  EXPECT_EQ(rep.telemetry.arenas_built, 2u);
  EXPECT_EQ(rep.telemetry.snapshots_built, 0u);
  EXPECT_EQ(rep.telemetry.snapshot_resumes, 0u);

  for (const runlab::JobResult& r : rep.results) {
    EXPECT_GT(r.mips, 0.0) << r.job.variant;
  }

  std::cout << "[perf] " << rep.telemetry.total_jobs << " jobs, "
            << rep.telemetry.instructions << " instructions in "
            << rep.telemetry.wall_ms << " ms => " << rep.telemetry.mips
            << " MIPS aggregate\n";
}

}  // namespace
