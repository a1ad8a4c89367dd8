// A materialized arena must be a perfect stand-in for the streaming
// generator it was drained from: running the simulator over a TraceCursor
// (decoded in place) has to produce the exact SimResult the generator
// produces (decoded through the 64-record fetch window), for every
// built-in benchmark, both history-table indexing schemes and both timing
// models. Occupancy cases keep their plain `bench_filter` names.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "filter/filter.hpp"
#include "sim/simulator.hpp"
#include "sim_result_eq.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::sim {
namespace {

class TraceEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, CoreModel>> {};

TEST_P(TraceEquivalenceTest, MaterializedRunMatchesStreamingRun) {
  const auto& [bench, kind, model] = GetParam();

  SimConfig cfg;
  cfg.max_instructions = 50'000;
  cfg.warmup_instructions = 10'000;
  cfg.filter = kind;
  cfg.core_model = model;

  auto streaming = workload::make_benchmark(bench, 9);
  const SimResult cold = Simulator(cfg).run(*streaming);

  auto generator = workload::make_benchmark(bench, 9);
  const auto arena = workload::materialize(*generator, 80'000);
  workload::TraceCursor cursor(arena);
  const SimResult warm = Simulator(cfg).run(cursor);

  expect_identical(cold, warm);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, TraceEquivalenceTest,
    ::testing::Combine(::testing::Values("bh", "em3d", "perimeter", "ijpeg",
                                         "fpppp", "gcc", "wave5", "gap",
                                         "gzip", "mcf"),
                       ::testing::Values("pa", "pc"),
                       ::testing::Values(CoreModel::Occupancy,
                                         CoreModel::Dataflow)),
    [](const auto& info) {
      const bool dataflow = std::get<2>(info.param) == CoreModel::Dataflow;
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             (dataflow ? "_dataflow" : "");
    });

}  // namespace
}  // namespace ppf::sim
