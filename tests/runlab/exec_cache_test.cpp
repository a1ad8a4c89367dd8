// ExecCache tests: the LRU byte budgets added for the serve daemon.
// The load-bearing contract is that eviction is *invisible in results*
// — a rebuilt arena or warmup snapshot is byte-identical to the evicted
// one, so a budget only ever costs rebuild time. Also covered: sharing
// one cache across batches of undeclared jobs (the daemon's usage),
// demand-sized arena builds, regrow-on-demand when a longer job arrives,
// and the snapshot policy: build a snapshot only for a key with a second
// declared consumer (or an undeclared job), warm up in place otherwise,
// and keep snapshots usable across arena regrowth. The arena policy is
// the same: a trace gets an arena only when it is read twice (a static
// job reads it twice itself) or by an undeclared job. Last, residency:
// a declared arena or snapshot leaves the cache with its last declared
// consumer, so a batch run trace by trace keeps at most one arena per
// worker plus one alive.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "diff/signature.hpp"
#include "runlab/exec_cache.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "runlab/sweep.hpp"

namespace ppf::runlab {
namespace {

Job cached_job(const std::string& bench, std::uint64_t seed,
               std::uint64_t instructions, std::uint64_t warmup) {
  Job job;
  job.benchmark = bench;
  job.config = sim::SimConfig::paper_default();
  job.config.max_instructions = instructions;
  job.config.warmup_instructions = warmup;
  job.config.seed = seed;
  job.config.core.seed = seed;
  job.seed = seed;
  job.filter_name = job.config.filter;
  return job;
}

SweepSpec eviction_sweep() {
  SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 30'000;
  spec.base.warmup_instructions = 10'000;
  spec.benchmarks = {"mcf", "em3d", "gzip"};
  spec.seeds = {1, 2};
  // Two window lengths share each warmup key, so every snapshot key has
  // two declared consumers and each batch builds its snapshots.
  spec.variants = {
      {"short", [](sim::SimConfig& c) { c.max_instructions = 20'000; }},
      {"long", [](sim::SimConfig& c) { c.max_instructions = 30'000; }},
  };
  return spec;
}

/// Runs `spec`'s jobs one at a time through `cache` without declaring
/// them, as the serve daemon does, into a report shaped like run_jobs'.
RunReport run_undeclared(ExecCache& cache, const SweepSpec& spec) {
  RunReport rep;
  for (Job& job : spec.expand()) {
    JobResult r;
    r.result = cache.execute(job);
    r.ok = true;
    r.job = std::move(job);
    rep.results.push_back(std::move(r));
  }
  return rep;
}

TEST(ExecCacheBudget, EvictionIsInvisibleInResults) {
  // Unbudgeted reference run.
  RunOptions plain = with_workers(2);
  const RunReport ref = run_sweep(eviction_sweep(), plain);
  EXPECT_EQ(ref.telemetry.trace_evictions, 0u);
  EXPECT_EQ(ref.telemetry.snapshot_evictions, 0u);

  // Undeclared jobs keep their arenas and snapshots, and 1 MB budgets
  // cannot hold 6 arenas (or 6 warm machines), so the cache must evict
  // and rebuild — and the JSON payload must not move by a byte. (A
  // declared batch drops each artifact after its last consumer, which
  // leaves this sweep's budget nothing to evict.)
  ExecCacheConfig budgeted;
  budgeted.trace_budget_bytes = std::size_t{1} << 20;
  budgeted.snapshot_budget_bytes = std::size_t{1} << 20;
  ExecCache cache(budgeted);
  const RunReport rep = run_undeclared(cache, eviction_sweep());
  EXPECT_GT(cache.stats().trace_evictions, 0u);
  EXPECT_GT(cache.stats().snapshot_evictions, 0u);
  EXPECT_EQ(to_json(rep), to_json(ref));
}

TEST(ExecCacheBudget, TelemetryJsonCarriesEvictionCounters) {
  ExecCacheConfig budgets;
  budgets.trace_budget_bytes = std::size_t{1} << 20;
  budgets.snapshot_budget_bytes = std::size_t{1} << 20;
  ExecCache cache(budgets);
  RunOptions budgeted = with_workers(1);
  budgeted.cache = &cache;
  const RunReport rep = run_sweep(eviction_sweep(), budgeted);
  const std::string telemetry = telemetry_to_json(rep);
  EXPECT_NE(telemetry.find("\"trace_evictions\":"), std::string::npos);
  EXPECT_NE(telemetry.find("\"snapshot_evictions\":"), std::string::npos);
}

TEST(ExecCacheShared, OneCacheServesManyBatchesWarm) {
  ExecCache cache;
  const RunReport first = run_undeclared(cache, eviction_sweep());
  const ExecCacheStats after_first = cache.stats();
  EXPECT_GT(after_first.trace_builds, 0u);
  EXPECT_GT(after_first.snapshot_builds, 0u);

  // Second identical batch through the same cache: every arena and
  // snapshot is resident, so nothing is rebuilt and every job resumes
  // from a warm machine — with byte-identical output.
  const RunReport second = run_undeclared(cache, eviction_sweep());
  const ExecCacheStats after_second = cache.stats();
  EXPECT_EQ(after_second.trace_builds, after_first.trace_builds);
  EXPECT_EQ(after_second.snapshot_builds, after_first.snapshot_builds);
  EXPECT_EQ(after_second.snapshot_resumes - after_first.snapshot_resumes,
            second.results.size());
  EXPECT_EQ(to_json(second), to_json(first));
}

TEST(ExecCache, StarvationBudgetStillProducesIdenticalResults) {
  // A budget smaller than a single entry degrades the cache to
  // holding only the most-recent entry per store (the entry in use is
  // pinned, everything else goes at the next finalize) — it must never
  // degrade to wrong answers. Alternating two keys forces an eviction
  // and a rebuild on every switch.
  ExecCacheConfig cfg;
  cfg.trace_budget_bytes = 1;
  cfg.snapshot_budget_bytes = 1;
  ExecCache cache(cfg);
  const Job a = cached_job("mcf", 1, 20'000, 10'000);
  const Job b = cached_job("mcf", 2, 20'000, 10'000);
  const std::string a_cold = diff::result_signature(cache.execute(a));
  (void)cache.execute(b);  // finalizing b evicts a's arena + snapshot
  const std::string a_rebuilt = diff::result_signature(cache.execute(a));
  EXPECT_EQ(a_cold, a_rebuilt);
  EXPECT_EQ(a_cold, diff::result_signature(execute_job(a)));
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 3u);
  EXPECT_GE(st.trace_evictions, 2u);
  EXPECT_EQ(st.snapshot_builds, 3u);
  EXPECT_GE(st.snapshot_evictions, 2u);
  // Residency stays nonzero: the pinned most-recent entry survives, so
  // a starvation budget holds one entry per store, not zero.
  EXPECT_GT(st.trace_bytes, 0u);
  EXPECT_GT(st.snapshot_bytes, 0u);
}

TEST(ExecCache, RegrowsTheArenaWhenALongerJobArrives) {
  ExecCache cache;
  const Job small = cached_job("mcf", 3, 20'000, 0);
  const Job large = cached_job("mcf", 3, 120'000, 0);
  (void)cache.execute(small);
  EXPECT_EQ(cache.stats().trace_builds, 1u);
  const std::string via_cache = diff::result_signature(cache.execute(large));
  // The longer job forced a rebuild (regrow counts as an eviction of
  // the short arena) but reads the same deterministic stream.
  EXPECT_EQ(cache.stats().trace_builds, 2u);
  EXPECT_GE(cache.stats().trace_evictions, 1u);
  EXPECT_EQ(via_cache, diff::result_signature(execute_job(large)));
}

TEST(ExecCache, NoteDemandSizesTheArenaOnce) {
  ExecCache cache;
  const Job small = cached_job("em3d", 5, 20'000, 0);
  const Job large = cached_job("em3d", 5, 120'000, 0);
  cache.note_demand(small);
  cache.note_demand(large);
  (void)cache.execute(small);
  (void)cache.execute(large);
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 1u);       // sized for `large` up front
  EXPECT_EQ(st.trace_evictions, 0u);    // so no regrow was needed
  EXPECT_EQ(st.trace_hits, 1u);
}

TEST(ExecCache, FailedBuildDoesNotSizeLaterBuilds) {
  // 2^60 records exceed every column's max_size, so the build throws at
  // once. Its need must not stay in the trace's watermark, or every
  // later build of mcf/42 would be sized to it and fail the same way.
  ExecCache cache;
  EXPECT_THROW(
      (void)cache.execute(cached_job("mcf", 42, std::uint64_t{1} << 60, 0)),
      std::exception);
  const Job small = cached_job("mcf", 42, 20'000, 0);
  EXPECT_EQ(diff::result_signature(cache.execute(small)),
            diff::result_signature(execute_job(small)));
  EXPECT_EQ(cache.stats().trace_builds, 2u);
}

Job with_window(Job job, std::uint64_t instructions) {
  job.config.max_instructions = instructions;
  return job;
}

TEST(ExecCacheTraces, SingleReadDeclaredBatchBuildsNoArena) {
  // One declared job per trace: every job streams its generator.
  ExecCache cache;
  const Job jobs[] = {cached_job("mcf", 8, 20'000, 10'000),
                      cached_job("gap", 8, 20'000, 0),
                      cached_job("em3d", 8, 20'000, 10'000)};
  for (const Job& j : jobs) cache.note_demand(j);
  for (const Job& j : jobs) {
    EXPECT_EQ(diff::result_signature(cache.execute(j)),
              diff::result_signature(execute_job(j)));
  }
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 0u);
  EXPECT_EQ(st.snapshot_builds, 0u);
  EXPECT_EQ(st.trace_bytes, 0u);
}

TEST(ExecCacheTraces, TwoDeclaredReadsBuildOneArena) {
  ExecCache cache;
  const Job a = cached_job("gzip", 8, 20'000, 0);
  Job b = a;
  b.config.filter = "pa";
  cache.note_demand(a);
  cache.note_demand(b);
  for (const Job& j : {a, b}) {
    EXPECT_EQ(diff::result_signature(cache.execute(j)),
              diff::result_signature(execute_job(j)));
  }
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 1u);
  EXPECT_EQ(st.trace_hits, 1u);
}

TEST(ExecCacheTraces, StaticJobsReadTheSharedArena) {
  // A static job reads its trace twice (profile, then measure), so one
  // declared static job already builds an arena, and a batch of them on
  // one trace builds exactly one. Both phases run over cursors on it.
  for (const char* bench : {"mcf", "em3d", "gcc"}) {
    ExecCache cache;
    Job job = cached_job(bench, 5, 20'000, 10'000);
    job.config.filter = "static";
    const Job longer = with_window(job, 30'000);
    const Job alone = cached_job(bench, 6, 20'000, 0);
    Job alone_static = alone;
    alone_static.config.filter = "static";
    for (const Job& j : {job, longer, alone_static}) cache.note_demand(j);
    for (const Job& j : {job, longer, alone_static}) {
      EXPECT_EQ(diff::result_signature(cache.execute(j)),
                diff::result_signature(execute_job(j)))
          << bench;
    }
    const ExecCacheStats st = cache.stats();
    EXPECT_EQ(st.trace_builds, 2u) << bench;
    EXPECT_EQ(st.trace_hits, 1u) << bench;
    EXPECT_EQ(st.snapshot_builds, 0u) << bench;
  }
}

TEST(ExecCacheTraces, StaticMixStreamsAndCountsAlikeAtAnyWorkerCount) {
  // A mix is one trace to the cache: its none and pc jobs read one
  // arena. The static mix profiles program A, a trace other than the
  // mix it measures, so it declares no reads and streams both phases.
  std::vector<Job> jobs;
  for (const char* filter : {"none", "pc", "static"}) {
    Job job = cached_job("em3d+gzip/5000", 3, 20'000, 5'000);
    job.index = jobs.size();
    job.config.filter = filter;
    job.filter_name = filter;
    jobs.push_back(job);
  }
  const Job& static_mix = jobs[2];
  {
    ExecCache cache;  // undeclared, as a serve request is
    EXPECT_EQ(diff::result_signature(cache.execute(static_mix)),
              diff::result_signature(execute_job(static_mix)));
    EXPECT_EQ(cache.stats().trace_builds, 0u);
  }
  const auto run = [&](std::size_t workers) {
    ExecCache cache;
    RunOptions opts = with_workers(workers);
    opts.cache = &cache;
    const RunReport rep = run_jobs(jobs, opts);
    EXPECT_EQ(rep.telemetry.failed_jobs, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(diff::result_signature(rep.results[i].result),
                diff::result_signature(execute_job(jobs[i])))
          << jobs[i].filter_name;
    }
    return std::make_pair(to_json(rep), cache.stats());
  };
  const auto [json1, st1] = run(1);
  const auto [json8, st8] = run(8);
  EXPECT_EQ(json1, json8);
  EXPECT_EQ(st1.trace_builds, 1u);
  EXPECT_EQ(st1.trace_hits, 1u);
  EXPECT_EQ(st8.trace_builds, st1.trace_builds);
  EXPECT_EQ(st8.trace_hits, st1.trace_hits);
  EXPECT_EQ(st8.trace_evictions, st1.trace_evictions);
  EXPECT_EQ(st8.snapshot_builds, st1.snapshot_builds);
  EXPECT_EQ(st8.snapshot_hits, st1.snapshot_hits);
  EXPECT_EQ(st8.snapshot_resumes, st1.snapshot_resumes);
  EXPECT_EQ(st8.trace_bytes, st1.trace_bytes);
  EXPECT_EQ(st8.snapshot_bytes, st1.snapshot_bytes);
}

TEST(ExecCacheSnapshots, KeyDeclaredOnceWarmsUpInPlace) {
  // Two reads of one trace, so it gets an arena, under two warmup keys
  // (nsp_degree shapes warmup), each declared once.
  ExecCache cache;
  const Job job = cached_job("mcf", 6, 20'000, 10'000);
  Job other = job;
  other.config.nsp_degree = 1;
  cache.note_demand(job);
  cache.note_demand(other);
  for (const Job& j : {job, other}) {
    EXPECT_EQ(diff::result_signature(cache.execute(j)),
              diff::result_signature(execute_job(j)));
  }
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 1u);
  EXPECT_EQ(st.snapshot_builds, 0u);
  EXPECT_EQ(st.snapshot_resumes, 0u);
  EXPECT_EQ(st.snapshot_bytes, 0u);
}

TEST(ExecCacheSnapshots, KeyDeclaredTwiceBuildsOnceAndResumesBoth) {
  ExecCache cache;
  const Job a = cached_job("em3d", 6, 20'000, 10'000);
  const Job b = with_window(a, 30'000);  // same warmup key
  cache.note_demand(a);
  cache.note_demand(b);
  EXPECT_EQ(diff::result_signature(cache.execute(a)),
            diff::result_signature(execute_job(a)));
  EXPECT_EQ(diff::result_signature(cache.execute(b)),
            diff::result_signature(execute_job(b)));
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.snapshot_builds, 1u);
  EXPECT_EQ(st.snapshot_hits, 1u);
  EXPECT_EQ(st.snapshot_resumes, 2u);
}

TEST(ExecCacheSnapshots, UndeclaredExecuteStillBuildsASnapshot) {
  ExecCache cache;
  const Job job = cached_job("gzip", 6, 20'000, 10'000);
  EXPECT_EQ(diff::result_signature(cache.execute(job)),
            diff::result_signature(execute_job(job)));
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.snapshot_builds, 1u);
  EXPECT_EQ(st.snapshot_resumes, 1u);
  EXPECT_GT(st.snapshot_bytes, 0u);
}

TEST(ExecCacheSnapshots, CountersAreTheSameAtAnyWorkerCount) {
  // Keys with two declared consumers (the two windows) and keys with one
  // (the nsp_degree variant has a warmup key of its own).
  SweepSpec spec = eviction_sweep();
  spec.filters = {"pa", "pc"};
  spec.variants.push_back(
      {"nsp1", [](sim::SimConfig& c) { c.nsp_degree = 1; }});
  const auto run = [&](std::size_t workers) {
    ExecCache cache;
    RunOptions opts = with_workers(workers);
    opts.cache = &cache;
    const RunReport rep = run_sweep(spec, opts);
    EXPECT_EQ(rep.telemetry.failed_jobs, 0u);
    return std::make_pair(to_json(rep), cache.stats());
  };
  const auto [json1, st1] = run(1);
  const auto [json8, st8] = run(8);
  EXPECT_EQ(json1, json8);
  // 2 filters x 6 traces: 12 two-consumer keys and 12 one-consumer keys.
  EXPECT_EQ(st1.snapshot_builds, 12u);
  EXPECT_EQ(st1.snapshot_hits, 12u);
  EXPECT_EQ(st1.snapshot_resumes, 24u);
  EXPECT_EQ(st1.trace_builds, 6u);
  EXPECT_EQ(st8.trace_builds, st1.trace_builds);
  EXPECT_EQ(st8.trace_hits, st1.trace_hits);
  EXPECT_EQ(st8.trace_evictions, st1.trace_evictions);
  EXPECT_EQ(st8.snapshot_builds, st1.snapshot_builds);
  EXPECT_EQ(st8.snapshot_hits, st1.snapshot_hits);
  EXPECT_EQ(st8.snapshot_evictions, st1.snapshot_evictions);
  EXPECT_EQ(st8.snapshot_resumes, st1.snapshot_resumes);
  EXPECT_EQ(st8.trace_bytes, st1.trace_bytes);
  EXPECT_EQ(st8.snapshot_bytes, st1.snapshot_bytes);
}

TEST(ExecCacheSnapshots, SnapshotSurvivesArenaRegrowth) {
  // Undeclared, as serve requests are: the short job builds a snapshot
  // over its arena; the long job regrows the arena and still resumes
  // from that snapshot, reading its window from the longer arena.
  ExecCache cache;
  const Job short_job = cached_job("mcf", 9, 20'000, 10'000);
  const Job long_job = with_window(short_job, 50'000);
  EXPECT_EQ(diff::result_signature(cache.execute(short_job)),
            diff::result_signature(execute_job(short_job)));
  EXPECT_EQ(diff::result_signature(cache.execute(long_job)),
            diff::result_signature(execute_job(long_job)));
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 2u);
  EXPECT_EQ(st.snapshot_builds, 1u);
  EXPECT_EQ(st.snapshot_hits, 1u);
  EXPECT_EQ(st.snapshot_resumes, 2u);
  EXPECT_EQ(st.snapshot_evictions, 0u);
}

TEST(ExecCacheSnapshots, ArenasRegrowAtLeastTwofold) {
  ExecCache cache;
  const Job job = cached_job("gap", 9, 20'000, 0);
  (void)cache.execute(job);                        // 20k records
  (void)cache.execute(with_window(job, 25'000));   // regrows to 40k
  (void)cache.execute(with_window(job, 35'000));   // fits in 40k
  (void)cache.execute(with_window(job, 100'000));  // regrows to 100k
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 3u);
  EXPECT_EQ(st.trace_hits, 1u);
}

TEST(ExecCacheSnapshots, ResumeReadsTheSnapshotsArenaWhenItIsLonger) {
  // The pc snapshot is built over an arena regrown to 60k records; after
  // that arena is evicted, a short pc job gets a rebuilt 40k arena (its
  // demand watermark) and must read its window from the snapshot's
  // longer arena instead.
  ExecCacheConfig cfg;
  cfg.trace_budget_bytes = 1;
  ExecCache cache(cfg);
  const Job pa_short = cached_job("mcf", 4, 20'000, 10'000);
  Job pc_long = with_window(pa_short, 30'000);
  pc_long.config.filter = "pc";
  const Job pc_short = with_window(pc_long, 20'000);
  (void)cache.execute(pa_short);                          // 30k arena
  (void)cache.execute(pc_long);                           // regrown to 60k
  (void)cache.execute(cached_job("gzip", 4, 20'000, 0));  // evicts mcf's
  EXPECT_EQ(diff::result_signature(cache.execute(pc_short)),
            diff::result_signature(execute_job(pc_short)));
  const ExecCacheStats st = cache.stats();
  EXPECT_EQ(st.trace_builds, 4u);
  EXPECT_EQ(st.snapshot_hits, 1u);
}

TEST(ExecCacheResidency, ArenasAreBoundedByWorkersNotTraces) {
  // Seeds and benchmarks interleave through the job list (the seed axis
  // is innermost), so in index order every trace would stay open until
  // the long variant's last job. Static jobs read their trace twice;
  // the none and pc jobs of a trace share a warmup key between their two
  // windows, so each such key has two declared consumers.
  SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.warmup_instructions = 5'000;
  spec.benchmarks = {"mcf", "gzip"};
  spec.filters = {"none", "pc", "static"};
  spec.seeds = {1, 2, 3};
  spec.variants = {
      {"short", [](sim::SimConfig& c) { c.max_instructions = 10'000; }},
      {"long", [](sim::SimConfig& c) { c.max_instructions = 15'000; }},
  };
  const std::vector<Job> jobs = spec.expand();
  std::vector<std::string> cold;
  for (const Job& j : jobs) {
    cold.push_back(diff::result_signature(execute_job(j)));
  }

  const auto run = [&](std::size_t workers) {
    ExecCache cache;
    RunOptions opts = with_workers(workers);
    opts.cache = &cache;
    const RunReport rep = run_jobs(jobs, opts);
    EXPECT_EQ(rep.telemetry.failed_jobs, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(diff::result_signature(rep.results[i].result), cold[i])
          << workers << " workers, " << job_repro(jobs[i]);
    }
    EXPECT_EQ(rep.telemetry.arena_high_water, cache.stats().arena_high_water);
    return std::make_pair(to_json(rep), cache.stats());
  };
  const auto [json1, st1] = run(1);
  EXPECT_EQ(st1.trace_builds, 6u);  // every trace is read more than once
  EXPECT_EQ(st1.snapshot_builds, 12u);  // two filters x six traces
  EXPECT_EQ(st1.snapshot_resumes, 24u);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const auto [json, st] = run(workers);
    EXPECT_EQ(json, json1) << workers;
    EXPECT_EQ(st.trace_builds, st1.trace_builds) << workers;
    EXPECT_EQ(st.trace_hits, st1.trace_hits) << workers;
    EXPECT_EQ(st.snapshot_builds, st1.snapshot_builds) << workers;
    EXPECT_EQ(st.snapshot_hits, st1.snapshot_hits) << workers;
    EXPECT_EQ(st.snapshot_resumes, st1.snapshot_resumes) << workers;
    EXPECT_EQ(st.trace_evictions, 0u) << workers;
    EXPECT_EQ(st.snapshot_evictions, 0u) << workers;
    EXPECT_GE(st.arena_high_water, 1u) << workers;
    EXPECT_LE(st.arena_high_water, workers + 1) << workers;
    // Every consumer has run, so nothing stays resident.
    EXPECT_EQ(st.trace_bytes, 0u) << workers;
    EXPECT_EQ(st.snapshot_bytes, 0u) << workers;
  }
}

TEST(ExecCacheResidency, HighWaterCountsArenasAliveOutsideTheCache) {
  // An undeclared job keeps its arena and snapshot. A longer job regrows
  // the arena: the cache lets the short one go, but the snapshot built on
  // it still holds it, so two arenas are alive.
  ExecCache cache;
  (void)cache.execute(cached_job("mcf", 1, 20'000, 10'000));
  EXPECT_EQ(cache.stats().arena_high_water, 1u);
  (void)cache.execute(cached_job("mcf", 1, 60'000, 10'000));
  EXPECT_EQ(cache.stats().trace_builds, 2u);
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  EXPECT_EQ(cache.stats().arena_high_water, 2u);
}

}  // namespace
}  // namespace ppf::runlab
