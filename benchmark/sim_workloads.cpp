// The three simulating workloads: ppf_sim-style runs, the paper's
// fig1 grid through runlab, and the full registry tournament.
#include <algorithm>
#include <numeric>
#include <thread>

#include "diff/signature.hpp"
#include "harness.hpp"
#include "registry/registry.hpp"
#include "runlab/exec_cache.hpp"
#include "runlab/runner.hpp"
#include "runlab/tournament.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::bench {

namespace {

std::size_t records_for(const sim::SimConfig& cfg) {
  return cfg.max_instructions + (cfg.warmup_instructions < cfg.max_instructions
                                     ? cfg.warmup_instructions
                                     : 0);
}

using Arena = std::shared_ptr<const workload::MaterializedTrace>;

/// The workload's inputs: materialize every (benchmark, seed) trace it
/// reads, at the length `cfg` reads, setup_reps times; `setup_s`
/// receives the time of each full set. With `keep` the last set is
/// returned for the passes to read; otherwise each arena is dropped once
/// built, since runlab builds its own inside every batch.
std::vector<Arena> generate_inputs(const Options& o,
                                   const std::vector<std::string>& benches,
                                   const std::vector<std::uint64_t>& seeds,
                                   const sim::SimConfig& cfg, bool keep,
                                   std::vector<double>& setup_s) {
  std::vector<Arena> arenas;
  for (int rep = 0; rep < setup_reps(o); ++rep) {
    arenas.clear();  // peak memory holds one set
    const Clock::time_point t0 = Clock::now();
    for (const std::string& b : benches) {
      for (const std::uint64_t seed : seeds) {
        const auto src = workload::make_benchmark(b, seed);
        Arena arena = workload::materialize(*src, records_for(cfg));
        if (keep) arenas.push_back(std::move(arena));
      }
    }
    setup_s.push_back(elapsed_s(t0));
  }
  return arenas;
}

/// Re-run `job` on the cold path (runlab::execute_job: a streaming
/// generator, no arena or snapshot) and require the result signature
/// the workload's own path produced for it.
void cross_check(Outcome& out, const runlab::Job& job,
                 const std::string& signature) {
  std::string cold;
  try {
    cold = diff::result_signature(runlab::execute_job(job));
  } catch (const std::exception& e) {
    cold = std::string("error: ") + e.what();
  }
  if (cold != signature) {
    out.errors.push_back(runlab::job_repro(job) +
                         " differs from its cold-path run");
  }
}

/// Sum of one profiler scope, in seconds (mean x count of its histogram;
/// the profiler records whole microseconds).
double scope_s(const obs::Profiler& prof, obs::ProfScopeId id) {
  obs::MetricsSnapshot snap;
  prof.append_snapshot(snap);
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == obs::to_string(id)) {
      return h.mean * static_cast<double>(h.count) * 1e-6;
    }
  }
  return 0;
}

/// Filter call counts and times, summed over a traced cycle's filters.
struct FilterTimes {
  std::uint64_t admit_calls = 0;
  std::uint64_t rejected = 0;
  std::uint64_t feedback_calls = 0;
  double admit_ns = 0;
  double feedback_ns = 0;

  void write(Layers& l) const {
    l["filter.admit_calls"] = static_cast<double>(admit_calls);
    l["filter.admit_s"] = std::max(0.0, admit_ns * 1e-9);
    l["filter.feedback_calls"] = static_cast<double>(feedback_calls);
    l["filter.feedback_s"] = std::max(0.0, feedback_ns * 1e-9);
    l["filter.reject_ratio"] =
        admit_calls == 0 ? 0.0
                         : static_cast<double>(rejected) /
                               static_cast<double>(admit_calls);
  }
};

/// Pass-through pollution filter timing every call into the filter it
/// wraps. Traced sim_single passes hand it to Simulator::run as the
/// external filter; results are identical to the owned-filter path (the
/// digest check enforces it).
class TimedFilter final : public filter::PollutionFilter {
 public:
  TimedFilter(std::unique_ptr<filter::PollutionFilter> inner,
              FilterTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  void feedback(const filter::FilterFeedback& f) override {
    const Clock::time_point t0 = Clock::now();
    inner_->feedback(f);
    times_.feedback_ns += since_ns(t0);
    ++times_.feedback_calls;
  }
  void recover(const filter::FilterFeedback& f) override {
    const Clock::time_point t0 = Clock::now();
    inner_->recover(f);
    times_.feedback_ns += since_ns(t0);
    ++times_.feedback_calls;
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 protected:
  bool decide(const filter::PrefetchCandidate& c) override {
    const Clock::time_point t0 = Clock::now();
    const bool ok = inner_->admit(c);
    times_.admit_ns += since_ns(t0);
    ++times_.admit_calls;
    if (!ok) ++times_.rejected;
    return ok;
  }

 private:
  // Per-call clock cost is subtracted here and only the sums are
  // clamped, so the totals stay unbiased.
  double since_ns(Clock::time_point t0) const {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() -
           clock_ns_;
  }

  std::unique_ptr<filter::PollutionFilter> inner_;
  FilterTimes& times_;
  double clock_ns_ = clock_ns();
};

/// The jobs of one grid batch (one unit of work).
struct JobLog {
  std::vector<std::string> signatures;  ///< by job index
  std::vector<double> wall_ms;
  std::uint64_t failed = 0;
  ResultTotals totals;

  explicit JobLog(std::size_t jobs) : signatures(jobs) {}

  void add(const runlab::JobResult& jr) {
    wall_ms.push_back(jr.wall_ms);
    std::string& sig = signatures.at(jr.job.index);
    if (!jr.ok) {
      ++failed;
      sig = "error: " + jr.error;
      return;
    }
    sig = diff::result_signature(jr.result);
    totals.add(jr.result);
  }
};

/// One pass over one grid batch.
struct BatchPass {
  double wall_s = 0;
  JobLog jobs;
  runlab::ExecCacheStats stats;  ///< the batch's own cache
};

/// The counters a traced cycle sums over its batches' caches.
constexpr std::uint64_t runlab::ExecCacheStats::*kSummedStats[] = {
    &runlab::ExecCacheStats::trace_builds,
    &runlab::ExecCacheStats::trace_hits,
    &runlab::ExecCacheStats::trace_evictions,
    &runlab::ExecCacheStats::snapshot_builds,
    &runlab::ExecCacheStats::snapshot_hits,
    &runlab::ExecCacheStats::snapshot_evictions,
    &runlab::ExecCacheStats::snapshot_resumes,
};

/// What a traced grid cycle gathers over its batches. RunReport's
/// telemetry is not used: run_tournament returns none, and it lacks the
/// hit counts, resident bytes and simulated counts reported here, so
/// both grid workloads gather the same numbers from progress callbacks
/// and their batch's ExecCacheStats.
struct GridTrace {
  obs::Profiler prof;  ///< every batch's ExecCache reports here
  std::vector<double> wall_ms;
  ResultTotals totals;
  runlab::ExecCacheStats stats;

  void add(const BatchPass& b) {
    wall_ms.insert(wall_ms.end(), b.jobs.wall_ms.begin(),
                   b.jobs.wall_ms.end());
    totals += b.jobs.totals;
    for (const auto field : kSummedStats) stats.*field += b.stats.*field;
    stats.trace_bytes += b.stats.trace_bytes;
  }

  /// Per-layer numbers of the cycle: `wall_s` long on `workers` workers.
  void write(Layers& l, std::size_t workers, double wall_s) const {
    const double probe = scope_s(prof, obs::ProfScopeId::RunlabProbe);
    const double simulate = scope_s(prof, obs::ProfScopeId::RunlabSimulate);
    const double busy_s =
        std::accumulate(wall_ms.begin(), wall_ms.end(), 0.0) * 1e-3;
    const double capacity_s = static_cast<double>(workers) * wall_s;
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    l["workload.arena_builds"] = count(stats.trace_builds);
    l["workload.arena_mb"] = static_cast<double>(stats.trace_bytes) / (1 << 20);
    l["snapshot.builds"] = count(stats.snapshot_builds);
    l["snapshot.hits"] = count(stats.snapshot_hits);
    l["snapshot.resumes"] = count(stats.snapshot_resumes);
    l["snapshot.evictions"] = count(stats.snapshot_evictions);
    l["snapshot.hit_ratio"] =
        stats.snapshot_hits + stats.snapshot_builds == 0
            ? 0.0
            : count(stats.snapshot_hits) /
                  count(stats.snapshot_hits + stats.snapshot_builds);
    l["runlab.probe_s"] = probe;
    l["runlab.simulate_s"] = simulate;
    l["runlab.job_wall_p50_ms"] = median(wall_ms);
    l["runlab.job_wall_max_ms"] = percentile(wall_ms, 1.0);
    l["runlab.utilization"] = capacity_s > 0 ? busy_s / capacity_s : 0;
    l["runlab.trace_hits"] = count(stats.trace_hits);
    l["runlab.trace_evictions"] = count(stats.trace_evictions);
    // Window instructions resume from snapshots inside RunlabSimulate;
    // the engine's stage estimates also cover the warmup run inside the
    // probe.
    totals.write(l, simulate, probe + simulate);
    l["trace.unattributed_share"] =
        capacity_s > 0 ? 1 - (probe + simulate) / capacity_s : 0;
  }
};

/// Plain and traced passes of a grid workload whose unit k is one batch
/// of `per_batch` jobs, started by `launch(k, options)` on `workers`
/// workers. Every pass gets a fresh ExecCache, with the profiler
/// attached only when traced, and tears it down after its timed span, so
/// plain and traced passes time the same work. Each unit's job
/// signatures fold into its digest; `first_signatures[k]` keeps the
/// first pass's.
RunLog run_grid(
    const Options& o, Outcome& out, std::size_t units, std::size_t per_batch,
    std::size_t workers,
    const std::function<void(std::size_t, const runlab::RunOptions&)>& launch,
    std::vector<std::vector<std::string>>& first_signatures) {
  first_signatures.assign(units, {});
  const auto pass = [&](std::size_t k, obs::Profiler* prof,
                        const char* what) {
    runlab::ExecCacheConfig cc;
    cc.profiler = prof;
    runlab::ExecCache cache(cc);
    BatchPass b{0, JobLog(per_batch), {}};
    runlab::RunOptions ro;
    ro.workers = workers;
    ro.cache = &cache;
    // Progress callbacks (serialized by the pool) are the view of each
    // job that run_jobs and run_tournament both give.
    ro.on_progress = [&b](const runlab::Progress& p) { b.jobs.add(*p.last); };
    const Clock::time_point t0 = Clock::now();
    launch(k, ro);
    b.wall_s = elapsed_s(t0);
    b.stats = cache.stats();

    out.attempted += per_batch;
    out.failed += b.jobs.failed;
    Digest d;
    for (const std::string& s : b.jobs.signatures) d.add(s);
    out.check_digest(k, d.hex(), what);
    if (first_signatures[k].empty()) first_signatures[k] = b.jobs.signatures;
    return b;
  };
  return run_units(
      o, units,
      [&](std::size_t k) {
        const BatchPass b = pass(k, nullptr, "pass");
        Pass p{b.wall_s, {}};
        for (const double ms : b.jobs.wall_ms) p.op_s.push_back(ms * 1e-3);
        return p;
      },
      [&](Layers& l) {
        GridTrace trace;
        double cycle_s = 0;
        for (std::size_t k = 0; k < units; ++k) {
          const BatchPass b = pass(k, &trace.prof, "traced pass");
          trace.add(b);
          cycle_s += b.wall_s;
          release_memory();
        }
        trace.write(l, workers, cycle_s);
        return cycle_s;
      });
}

}  // namespace

// ppf_sim's path (materialize, then Simulator::run over a cursor) for
// bench=mcf filter=pc, once per trace seed: one consumer per arena, so
// trace generation is a large share here and nowhere else. Each of the
// 40 runs is one unit.
Outcome sim_single(const Options& o) {
  constexpr std::size_t kTraces = 40;
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.filter = "pc";
  cfg.max_instructions = o.smoke ? 5'000 : 100'000;
  cfg.warmup_instructions = o.smoke ? 1'250 : 25'000;
  const std::vector<std::uint64_t> seeds = sub_seeds(o.seed, kTraces);

  Outcome out;
  std::vector<double> setup_s;
  const std::vector<Arena> arenas =
      generate_inputs(o, {"mcf"}, seeds, cfg, true, setup_s);

  // Trace k's run; `wall_s` covers the cursor and Simulator::run. Keeps
  // each trace's first signature for the cold-path check.
  std::vector<std::string> first_signatures(kTraces);
  const auto simulate = [&](std::size_t k, filter::PollutionFilter* filter,
                            double& wall_s) {
    sim::SimConfig c = cfg;
    c.seed = seeds[k];
    const Clock::time_point t0 = Clock::now();
    workload::TraceCursor cursor(arenas[k]);
    sim::SimResult r = sim::Simulator(c).run(cursor, filter);
    wall_s = elapsed_s(t0);
    ++out.attempted;
    std::string signature = diff::result_signature(r);
    Digest d;
    d.add(signature);
    out.check_digest(k, d.hex(), filter == nullptr ? "pass" : "traced pass");
    if (first_signatures[k].empty()) first_signatures[k] = std::move(signature);
    return r;
  };
  RunLog log = run_units(
      o, kTraces,
      [&](std::size_t k) {
        double wall = 0;
        simulate(k, nullptr, wall);
        return Pass{wall, {wall}};
      },
      [&](Layers& l) {
        FilterTimes filter_times;
        ResultTotals totals;
        double simulate_s = 0;
        double loop_s = 0;  // whole loop bodies, outside release_memory()
        for (std::size_t k = 0; k < kTraces; ++k) {
          const Clock::time_point t0 = Clock::now();
          // `pc` indexes by trigger PC and never probes the L1, so the
          // filter needs no cache reference.
          registry::FilterContext ctx;
          ctx.history = cfg.history;
          ctx.inst_bytes = cfg.core.inst_bytes;
          TimedFilter timed(registry::make_filter(cfg.filter, ctx),
                            filter_times);
          double wall = 0;
          totals.add(simulate(k, &timed, wall));
          simulate_s += wall;
          loop_s += elapsed_s(t0);
          release_memory();
        }
        totals.write(l, simulate_s, simulate_s);
        filter_times.write(l);
        double arena_bytes = 0;
        for (const Arena& a : arenas) arena_bytes += a->bytes();
        l["workload.arena_builds"] = kTraces;
        l["workload.arena_mb"] = arena_bytes / (1 << 20);
        // The only layer timed here is the cursor plus Simulator::run, so
        // this is the harness's own loop overhead and near 0 by
        // definition; the split inside the run is sim.stage.* and
        // filter.*.
        l["trace.unattributed_share"] = 1 - simulate_s / loop_s;
        return simulate_s;
      });
  for (const std::size_t k : {std::size_t{0}, kTraces / 2}) {
    runlab::Job job;
    job.benchmark = "mcf";
    job.filter_name = cfg.filter;
    job.seed = seeds[k];
    job.config = cfg;
    job.config.seed = seeds[k];
    cross_check(out, job, first_signatures[k]);
  }
  // At least 40 runs (one pass of each unit): the 75th percentile leaves 10
  // beyond.
  finish(std::move(log),
         static_cast<double>(kTraces * cfg.max_instructions), 0.75, setup_s,
         out);
  out.layers["workload.arena_build_s"] = out.end_to_end["setup_s"];
  return out;
}

// The paper's headline grid: 10 benchmarks x {none, pa, pc}, once per
// trace seed, on one runlab worker. A unit is one (trace, benchmark)
// batch of three jobs, none then pa then pc, on a fresh cache, so that
// units are short and each is timed many times (see fastest_count). The
// first job builds the arena the other two read, and every warmup
// snapshot has one consumer, so engine speed dominates.
Outcome fig1_grid(const Options& o) {
  constexpr std::size_t kTraces = 3;
  runlab::SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = o.smoke ? 2'500 : 50'000;
  spec.base.warmup_instructions = o.smoke ? 1'250 : 25'000;
  spec.filters = {"none", "pa", "pc"};
  const std::vector<std::string> benches = workload::benchmark_names();
  const std::vector<std::uint64_t> seeds = sub_seeds(o.seed, kTraces);
  std::vector<std::vector<runlab::Job>> batches;
  for (const std::uint64_t seed : seeds) {
    for (const std::string& b : benches) {
      spec.benchmarks = {b};
      spec.seeds = {seed};
      batches.push_back(spec.expand());
    }
  }
  const std::size_t units = batches.size();
  const std::size_t per_batch = spec.filters.size();

  Outcome out;
  std::vector<double> setup_s;
  generate_inputs(o, benches, seeds, spec.base, false, setup_s);

  // Keeps each batch's first results for the paper's summaries.
  std::vector<std::vector<runlab::JobResult>> first_results(units);
  std::vector<std::vector<std::string>> first_signatures;
  RunLog log = run_grid(
      o, out, units, per_batch, 1,
      [&](std::size_t k, const runlab::RunOptions& ro) {
        runlab::RunReport rep = runlab::run_jobs(batches[k], ro);
        if (first_results[k].empty()) {
          first_results[k] = std::move(rep.results);
        }
      },
      first_signatures);

  // The paper's Figure 6 / Figure 4 summaries for the PC filter over
  // every (benchmark, trace): +9.1% mean IPC, 98% of bad prefetches cut.
  double gain = 0, cut = 0;
  int gains = 0, cuts = 0;
  for (const std::vector<runlab::JobResult>& results : first_results) {
    const sim::SimResult& none = results[0].result;
    const sim::SimResult& pc = results[2].result;
    if (none.ipc() > 0) {
      gain += pc.ipc() / none.ipc() - 1;
      ++gains;
    }
    if (none.bad_total() > 0 && none.good_total() > 0) {
      cut += 1 - static_cast<double>(pc.bad_total()) /
                     static_cast<double>(none.bad_total());
      ++cuts;
    }
  }
  out.layers["paper.ipc_gain_pc_pct"] = gains ? 100 * gain / gains : 0;
  out.layers["paper.bad_cut_pc_pct"] = cuts ? 100 * cut / cuts : 0;

  // Four jobs against the cold path: each filter once, and an arena
  // reader of the last trace.
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                              units - 1}) {
    const std::size_t i = k % per_batch;
    cross_check(out, batches[k][i], first_signatures[k][i]);
  }

  // At least 90 jobs (one pass of 30 units): the 85th percentile leaves 13
  // beyond.
  finish(std::move(log),
         static_cast<double>(units * per_batch * spec.base.max_instructions),
         0.85, setup_s, out);
  out.layers["workload.arena_build_s"] = out.end_to_end["setup_s"];
  return out;
}

// Every registered filter x prefetcher x benchmark, once per trace seed,
// on min(2, nproc) workers; each seed's run_tournament is a unit. The
// only workload running the whole policy zoo, the thread pool and a
// shared ExecCache under contention. Two workers, not four: on a 4-vCPU
// host a pass on four is fast only when every vCPU is free of other
// tenants at once, and run alternately over ten seeds four workers
// spread 0.12-0.13 run to run where two spread 0.04-0.05.
Outcome tournament(const Options& o) {
  constexpr std::size_t kTraces = 2;
  runlab::TournamentSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = o.smoke ? 2'500 : 25'000;
  spec.base.warmup_instructions = o.smoke ? 625 : 6'250;
  spec.filters = registry::filter_keys();
  spec.prefetchers = registry::prefetcher_keys();
  spec.benchmarks = workload::benchmark_names();
  spec.signature = [](const sim::SimConfig& cfg, const std::string& bench) {
    return diff::config_digest(cfg, bench);
  };
  const std::vector<std::uint64_t> seeds = sub_seeds(o.seed, kTraces);
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
  const std::size_t per_batch =
      spec.filters.size() * spec.prefetchers.size() * spec.benchmarks.size();
  std::vector<runlab::TournamentSpec> specs(kTraces, spec);
  for (std::size_t k = 0; k < kTraces; ++k) specs[k].base.seed = seeds[k];

  Outcome out;
  std::vector<double> setup_s;
  generate_inputs(o, spec.benchmarks, seeds, spec.base, false, setup_s);

  std::vector<std::vector<std::string>> first_signatures;
  RunLog log = run_grid(
      o, out, kTraces, per_batch, workers,
      [&](std::size_t k, const runlab::RunOptions& ro) {
        const runlab::TournamentReport rep =
            runlab::run_tournament(specs[k], ro);
        if (rep.job_count != per_batch) {
          out.errors.push_back("tournament ran " +
                               std::to_string(rep.job_count) +
                               " jobs, expected " + std::to_string(per_batch));
        }
      },
      first_signatures);

  // Three jobs of each seed against the cold path; run_tournament
  // expands filter-major, then prefetcher, benchmark innermost.
  const std::size_t n_bench = spec.benchmarks.size();
  const std::size_t n_pref = spec.prefetchers.size();
  for (std::size_t k = 0; k < kTraces; ++k) {
    for (const std::size_t i :
         {std::size_t{0}, per_batch / 2 + 7, per_batch - 1}) {
      runlab::Job job;
      job.index = i;
      job.benchmark = spec.benchmarks[i % n_bench];
      job.filter_name = spec.filters[i / (n_pref * n_bench)];
      job.seed = seeds[k];
      job.config = spec.base;
      job.config.seed = job.seed;
      job.config.filter = job.filter_name;
      job.config.prefetchers = {spec.prefetchers[(i / n_bench) % n_pref]};
      cross_check(out, job, first_signatures[k][i]);
    }
  }
  // At least 840 jobs (one pass of each unit): the 98th percentile leaves
  // 16 beyond.
  finish(std::move(log),
         static_cast<double>(kTraces * per_batch * spec.base.max_instructions),
         0.98, setup_s, out);
  out.layers["workload.arena_build_s"] = out.end_to_end["setup_s"];
  return out;
}

}  // namespace ppf::bench
