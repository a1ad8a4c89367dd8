// End-to-end observability contract (CTest label: obs, via the
// ppf_obs_tests binary):
//
//   * lifecycle event counts reconcile EXACTLY with the end-of-run
//     aggregate counters (they are recorded adjacent to the same
//     bookkeeping calls),
//   * interval time-series column sums equal the final counter totals,
//   * observations are byte-identical across repeated runs, across the
//     cold vs warmup-snapshot paths, and across runlab jobs=1 vs jobs=4,
//   * obs never perturbs the simulation itself.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "runlab/runner.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace {

using namespace ppf;

sim::SimConfig small_config() {
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 120'000;
  cfg.warmup_instructions = 30'000;
  cfg.filter = "pc";
  cfg.obs.enabled = true;
  cfg.obs.sample_interval = 20'000;
  return cfg;
}

sim::SimResult run_once(const sim::SimConfig& cfg, const std::string& bench,
                        bool warmup_share = false) {
  auto src = workload::make_benchmark(bench, cfg.seed);
  const auto arena =
      workload::materialize(*src, cfg.max_instructions + cfg.active_warmup());
  if (warmup_share) {
    const auto snap = sim::make_warmup_snapshot(cfg, arena);
    EXPECT_NE(snap, nullptr);
    if (snap != nullptr) return sim::run_from_snapshot(cfg, *snap, arena);
  }
  workload::TraceCursor cursor(arena);
  return sim::Simulator(cfg).run(cursor);
}

std::uint64_t count_of(const obs::RunObservation& o, obs::EventKind k) {
  return o.event_counts[static_cast<std::size_t>(k)];
}

/// Render every export format into one string — the byte-identity probe.
std::string serialize(const obs::RunObservation& o) {
  std::ostringstream os;
  obs::write_trace_jsonl(os, o, {"w", "f"});
  obs::write_trace_chrome(os, o, {"w", "f"});
  obs::write_timeseries_json(os, o, {"w", "f"});
  return os.str();
}

TEST(ObsIntegration, EventCountsReconcileWithAggregates) {
  for (const char* bench : {"mcf", "em3d"}) {
    const sim::SimResult r = run_once(small_config(), bench);
    ASSERT_NE(r.observation, nullptr);
    const obs::RunObservation& o = *r.observation;

    EXPECT_EQ(count_of(o, obs::EventKind::Issued),
              r.prefetch_issued.total())
        << bench;
    EXPECT_EQ(count_of(o, obs::EventKind::Filtered),
              r.prefetch_filtered.total())
        << bench;
    EXPECT_EQ(count_of(o, obs::EventKind::Squashed), r.prefetch_squashed)
        << bench;
    // Every issued prefetch fills (L1, buffer, or L2 target) in every
    // hierarchy mode — issue-time squashes happen before `issued`.
    EXPECT_EQ(count_of(o, obs::EventKind::Fill),
              count_of(o, obs::EventKind::Issued))
        << bench;
    // Final verdicts: good/bad partition the issued population after the
    // finalize drain.
    EXPECT_EQ(count_of(o, obs::EventKind::EvictReferenced), r.good_total())
        << bench;
    EXPECT_EQ(count_of(o, obs::EventKind::EvictDead), r.bad_total()) << bench;
    // Lines prefetched during warmup but evicted inside the window are
    // still classified, so verdicts can exceed window-issued prefetches.
    EXPECT_GE(r.good_total() + r.bad_total(), r.prefetch_issued.total())
        << bench;
    // A first use precedes every referenced eviction decided inside the
    // window; lines first-touched during warmup may still evict as
    // "referenced" afterwards, so <= rather than ==.
    EXPECT_LE(count_of(o, obs::EventKind::FirstUse),
              count_of(o, obs::EventKind::EvictReferenced))
        << bench;
    EXPECT_EQ(o.dropped_events, 0u) << bench;
    std::uint64_t total = 0;
    for (std::uint64_t c : o.event_counts) total += c;
    EXPECT_EQ(o.events.size(), total) << bench;
  }
}

TEST(ObsIntegration, VerdictsPartitionIssuedExactlyWithoutWarmup) {
  // With no warmup there is no pre-window residue: after the finalize
  // drain every issued prefetch gets exactly one good/bad verdict.
  sim::SimConfig cfg = small_config();
  cfg.warmup_instructions = 0;
  const sim::SimResult r = run_once(cfg, "mcf");
  ASSERT_NE(r.observation, nullptr);
  EXPECT_GT(r.prefetch_issued.total(), 0u);
  EXPECT_EQ(r.good_total() + r.bad_total(), r.prefetch_issued.total());
  EXPECT_EQ(count_of(*r.observation, obs::EventKind::EvictReferenced) +
                count_of(*r.observation, obs::EventKind::EvictDead),
            count_of(*r.observation, obs::EventKind::Issued));
}

TEST(ObsIntegration, TimeseriesColumnsSumToFinalTotals) {
  const sim::SimResult r = run_once(small_config(), "mcf");
  ASSERT_NE(r.observation, nullptr);
  const obs::RunObservation& o = *r.observation;
  ASSERT_FALSE(o.timeseries.rows.empty());
  ASSERT_EQ(o.timeseries.columns.size(), o.final_metrics.counters.size());

  std::vector<std::uint64_t> sums(o.timeseries.columns.size(), 0);
  Cycle prev_end = 0;
  for (const obs::TimeSeriesRow& row : o.timeseries.rows) {
    ASSERT_EQ(row.deltas.size(), sums.size());
    EXPECT_LT(row.start, row.end);
    if (prev_end != 0) {
      EXPECT_EQ(row.start, prev_end);  // gap-free grid
    }
    prev_end = row.end;
    for (std::size_t i = 0; i < row.deltas.size(); ++i) {
      sums[i] += row.deltas[i];
    }
  }
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], o.final_metrics.counters[i].second)
        << o.timeseries.columns[i];
    EXPECT_EQ(o.timeseries.columns[i], o.final_metrics.counters[i].first);
  }
}

TEST(ObsIntegration, ObservationBytesIdenticalAcrossRepeatedRuns) {
  const sim::SimResult a = run_once(small_config(), "mcf");
  const sim::SimResult b = run_once(small_config(), "mcf");
  ASSERT_NE(a.observation, nullptr);
  ASSERT_NE(b.observation, nullptr);
  EXPECT_EQ(serialize(*a.observation), serialize(*b.observation));
}

TEST(ObsIntegration, ColdAndSnapshotPathsObserveIdentically) {
  const sim::SimResult cold = run_once(small_config(), "mcf", false);
  const sim::SimResult warm = run_once(small_config(), "mcf", true);
  ASSERT_NE(cold.observation, nullptr);
  ASSERT_NE(warm.observation, nullptr);
  EXPECT_EQ(serialize(*cold.observation), serialize(*warm.observation));
}

TEST(ObsIntegration, RunlabObservationsIdenticalAcrossWorkerCounts) {
  runlab::SweepSpec spec;
  spec.base = small_config();
  spec.base.max_instructions = 60'000;
  spec.base.warmup_instructions = 20'000;
  spec.benchmarks = {"mcf", "em3d"};
  spec.filters = {"none", "pc"};

  const runlab::RunReport seq = runlab::run_sweep(spec, runlab::with_workers(1));
  const runlab::RunReport par = runlab::run_sweep(spec, runlab::with_workers(4));
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (std::size_t i = 0; i < seq.results.size(); ++i) {
    ASSERT_TRUE(seq.results[i].ok);
    ASSERT_TRUE(par.results[i].ok);
    ASSERT_NE(seq.results[i].result.observation, nullptr);
    ASSERT_NE(par.results[i].result.observation, nullptr);
    EXPECT_EQ(serialize(*seq.results[i].result.observation),
              serialize(*par.results[i].result.observation))
        << "job " << i;
  }
}

TEST(ObsIntegration, CaptureEventsOffKeepsCountsDropsPayloads) {
  sim::SimConfig cfg = small_config();
  cfg.obs.capture_events = false;
  const sim::SimResult r = run_once(cfg, "mcf");
  ASSERT_NE(r.observation, nullptr);
  EXPECT_TRUE(r.observation->events.empty());
  EXPECT_EQ(r.observation->dropped_events, 0u);
  // Aggregate counts survive the event blackout... by reading the
  // classifier-adjacent counters, not the buffer.
  EXPECT_EQ(count_of(*r.observation, obs::EventKind::Issued),
            r.prefetch_issued.total());
}

TEST(ObsIntegration, ObsDoesNotPerturbTheSimulation) {
  sim::SimConfig off = small_config();
  off.obs = obs::ObsConfig{};  // fully disabled
  const sim::SimResult plain = run_once(off, "mcf");
  const sim::SimResult observed = run_once(small_config(), "mcf");
  EXPECT_EQ(plain.core.cycles, observed.core.cycles);
  EXPECT_EQ(plain.core.instructions, observed.core.instructions);
  EXPECT_EQ(plain.prefetch_issued.total(), observed.prefetch_issued.total());
  EXPECT_EQ(plain.good_total(), observed.good_total());
  EXPECT_EQ(plain.bad_total(), observed.bad_total());
  EXPECT_EQ(plain.observation, nullptr);
}

TEST(ObsIntegration, TraceCapacityBoundsMemoryNotCounts) {
  sim::SimConfig cfg = small_config();
  cfg.obs.trace_capacity = 64;
  const sim::SimResult r = run_once(cfg, "mcf");
  ASSERT_NE(r.observation, nullptr);
  EXPECT_EQ(r.observation->events.size(), 64u);
  EXPECT_GT(r.observation->dropped_events, 0u);
  // Counts still cover the whole window.
  EXPECT_EQ(count_of(*r.observation, obs::EventKind::Issued),
            r.prefetch_issued.total());
}

}  // namespace
