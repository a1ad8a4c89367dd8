// Throughput regression gate (CTest label: perf).
//
// Compares a fresh short-grid run against the committed
// BENCH_throughput.json baseline. Unlike mips_smoke_test.cpp this one
// DOES assert a wall-clock floor, so it is deliberately generous: the
// fresh run only has to reach PPF_PERF_SLACK (default 0.25) of the
// baseline's aggregate MIPS. That catches order-of-magnitude
// regressions — an accidental O(n^2), a debug-only code path left on,
// virtual calls creeping back into the cycle loop — while staying quiet
// across the usual 2-3x machine-to-machine variance of CI hardware.
// Tune the slack per machine with e.g. `PPF_PERF_SLACK=0.6 ctest -L perf`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "runlab/runner.hpp"
#include "sim/sim_config.hpp"

#ifndef PPF_BENCH_BASELINE
#error "build must define PPF_BENCH_BASELINE (path to BENCH_throughput.json)"
#endif

namespace {

using namespace ppf;

// Extracts the first `"key":<number>` occurrence — for the telemetry
// schema that is the aggregate value, since per_job rows come later.
double extract_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

TEST(PerfRegress, ShortGridStaysWithinSlackOfCommittedBaseline) {
  std::ifstream in(PPF_BENCH_BASELINE);
  if (!in) {
    GTEST_SKIP() << "baseline not found at " << PPF_BENCH_BASELINE;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string baseline = ss.str();

  const double base_mips = extract_number(baseline, "mips");
  ASSERT_GT(base_mips, 0.0) << "no aggregate mips in baseline";
  // The committed baseline must carry the per-stage breakdown — it is
  // the documented reference for where cycle-loop time goes.
  EXPECT_NE(baseline.find("\"stages\""), std::string::npos)
      << "baseline lacks the per-stage breakdown";

  double slack = 0.25;
  if (const char* env = std::getenv("PPF_PERF_SLACK")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) slack = v;
  }

  runlab::SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 200'000;
  spec.base.warmup_instructions = 100'000;
  spec.benchmarks = {"mcf", "gcc", "em3d"};
  spec.filters = {"none", "pa",
                  "pc"};

  runlab::RunOptions opts;
  opts.workers = 1;  // baseline is single-worker; compare like for like
  const runlab::RunReport rep = runlab::run_sweep(spec, opts);
  ASSERT_EQ(rep.telemetry.failed_jobs, 0u);
  ASSERT_GT(rep.telemetry.mips, 0.0);

  const double floor = base_mips * slack;
  std::cout << "[perf] fresh short grid: " << rep.telemetry.mips
            << " MIPS vs baseline " << base_mips << " (floor " << floor
            << " = slack " << slack << ")\n";
  EXPECT_GE(rep.telemetry.mips, floor)
      << "throughput regressed: " << rep.telemetry.mips << " MIPS < "
      << floor << " (baseline " << base_mips << " x slack " << slack
      << "; override with PPF_PERF_SLACK)";
}

}  // namespace
