#include "runlab/runner.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "runlab/exec_cache.hpp"
#include "runlab/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::runlab {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Job indices grouped by trace (ExecCache::trace_key), the groups in
/// order of first appearance, each group in index order.
std::vector<std::size_t> trace_major_order(const std::vector<Job>& jobs) {
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] =
        group_of.try_emplace(ExecCache::trace_key(jobs[i]), groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(jobs.size());
  for (const std::vector<std::size_t>& g : groups) {
    order.insert(order.end(), g.begin(), g.end());
  }
  return order;
}

}  // namespace

double safe_mips(std::uint64_t instructions, double wall_ms) {
  const double denom_ms = wall_ms > 1e-6 ? wall_ms : 1e-6;
  const double mips = static_cast<double>(instructions) / (denom_ms * 1000.0);
  return std::isfinite(mips) ? mips : 0.0;
}

sim::SimResult execute_job(const Job& job) {
  return sim::run_benchmark(job.config, job.benchmark);
}

std::string job_repro(const Job& job) {
  std::string s = "job " + std::to_string(job.index) + " [bench=" +
                  job.benchmark + " filter=" + job.filter_name +
                  " seed=" + std::to_string(job.seed) + " instructions=" +
                  std::to_string(job.config.max_instructions) + " warmup=" +
                  std::to_string(job.config.warmup_instructions);
  if (!job.variant.empty()) s += " variant=" + job.variant;
  if (job.config.diff_fail_at != 0) {
    s += " diff_fail_at=" + std::to_string(job.config.diff_fail_at);
  }
  s += ']';
  return s;
}

RunReport run_jobs(std::vector<Job> jobs, const RunOptions& opts) {
  RunReport rep;
  rep.results.resize(jobs.size());

  ThreadPool pool(opts.workers);
  rep.telemetry.workers = pool.workers();
  rep.telemetry.total_jobs = jobs.size();

  // Heartbeat wiring happens BEFORE the ExecContext is built and before
  // any job moves into its result slot, so the slot pointer travels with
  // the job wherever it goes. The slots never influence simulation (the
  // core only stores into them) and obs settings are outside warmup_key,
  // so arena/snapshot sharing is unaffected.
  std::unique_ptr<std::atomic<std::uint64_t>[]> hb_slots;
  std::vector<std::uint64_t> hb_expected(jobs.size(), 0);
  std::uint64_t expected_total = 0;
  if (opts.on_heartbeat) {
    hb_slots = std::make_unique<std::atomic<std::uint64_t>[]>(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      hb_slots[i].store(0, std::memory_order_relaxed);
      const sim::SimConfig& c = jobs[i].config;
      hb_expected[i] = c.max_instructions + c.active_warmup();
      expected_total += hb_expected[i];
      jobs[i].config.obs.heartbeat_slot = &hb_slots[i];
    }
  }

  // The execution cache: either the caller's long-lived one (serve
  // daemon) or a private per-batch cache built from the options. Either
  // way, declaring every job up front sizes each arena for its hungriest
  // consumer so it is built exactly once.
  std::unique_ptr<ExecCache> local_cache;
  ExecCache* cache = opts.cache;
  if (cache == nullptr) {
    ExecCacheConfig cc;
    cc.trace_cache = opts.trace_cache;
    cc.warmup_share = opts.warmup_share;
    local_cache = std::make_unique<ExecCache>(cc);
    cache = local_cache.get();
  }
  for (const Job& job : jobs) cache->note_demand(job);
  const ExecCacheStats cache_before = cache->stats();
  // Trace by trace: a trace's jobs run together and its arena leaves the
  // cache with their last read, so the batch holds about one arena per
  // worker whatever its size. Results still land in index order.
  const std::vector<std::size_t> order = trace_major_order(jobs);

  std::mutex progress_mu;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::atomic<std::size_t> done_atomic{0};
  std::atomic<std::size_t> failed_atomic{0};

  const Clock::time_point batch_start = Clock::now();

  // Monitor thread: wakes every heartbeat_period_ms, sums the per-job
  // slots and reports batch liveness. Completed jobs pin their slot to
  // the expected count so a finished batch always reads 100%.
  std::thread monitor;
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  const auto make_heartbeat = [&] {
    Heartbeat hb;
    hb.done = done_atomic.load(std::memory_order_relaxed);
    hb.total = rep.results.size();
    hb.failed = failed_atomic.load(std::memory_order_relaxed);
    hb.expected_instructions = expected_total;
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      hb.instructions += hb_slots[i].load(std::memory_order_relaxed);
    }
    hb.wall_ms = ms_between(batch_start, Clock::now());
    hb.mips = safe_mips(hb.instructions, hb.wall_ms);
    if (hb.mips > 0 && hb.expected_instructions > hb.instructions) {
      hb.eta_s = static_cast<double>(hb.expected_instructions -
                                     hb.instructions) /
                 (hb.mips * 1e6);
    }
    return hb;
  };
  if (opts.on_heartbeat) {
    monitor = std::thread([&] {
      const auto period = std::chrono::duration<double, std::milli>(
          opts.heartbeat_period_ms > 1.0 ? opts.heartbeat_period_ms : 1.0);
      std::unique_lock<std::mutex> lk(hb_mu);
      while (!hb_cv.wait_for(lk, period, [&] { return hb_stop; })) {
        opts.on_heartbeat(make_heartbeat());
      }
    });
  }

  pool.run(jobs.size(), [&](std::size_t k, std::size_t worker) {
    const std::size_t i = order[k];
    JobResult& slot = rep.results[i];
    slot.job = std::move(jobs[i]);
    slot.worker = worker;
    const Clock::time_point t0 = Clock::now();
    // Every failure record leads with the job identity + config string:
    // a bare e.what() aggregated out of a 500-job sweep is otherwise
    // unattributable. The catch-all keeps a throwing job from escaping
    // into (and killing) the worker thread — the pool always drains.
    try {
      if (opts.cancel && opts.cancel()) {
        slot.cancelled = true;
        throw std::runtime_error("cancelled before start (shutdown "
                                 "requested); in-flight jobs drained");
      }
      slot.result = cache->execute(slot.job);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.ok = false;
      slot.error = job_repro(slot.job) + ": " + e.what();
    } catch (...) {
      slot.ok = false;
      slot.error = job_repro(slot.job) + ": unknown exception";
    }
    slot.wall_ms = ms_between(t0, Clock::now());
    if (slot.ok) {
      slot.mips = safe_mips(slot.result.core.instructions, slot.wall_ms);
    }
    if (slot.ok && opts.job_timeout_ms > 0 &&
        slot.wall_ms > opts.job_timeout_ms) {
      slot.ok = false;
      slot.error = "timeout: job took " + sim::fmt(slot.wall_ms, 1) +
                   " ms (limit " + sim::fmt(opts.job_timeout_ms, 1) + " ms)";
    }
    if (hb_slots != nullptr) {
      // Pin to the expected count: the heartbeat's notion of "all work
      // done" must not depend on how recently the core last published.
      hb_slots[i].store(hb_expected[i], std::memory_order_relaxed);
      done_atomic.fetch_add(1, std::memory_order_relaxed);
      if (!slot.ok) failed_atomic.fetch_add(1, std::memory_order_relaxed);
    }

    std::lock_guard<std::mutex> lk(progress_mu);
    ++done;
    if (!slot.ok) {
      if (slot.cancelled) {
        ++cancelled;
      } else {
        ++failed;
      }
    }
    if (opts.on_progress) {
      Progress p;
      p.done = done;
      p.total = rep.results.size();
      p.failed = failed;
      p.last = &slot;
      opts.on_progress(p);
    }
  });

  if (opts.on_heartbeat) {
    {
      std::lock_guard<std::mutex> lk(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    monitor.join();
    // Final heartbeat so consumers always see the finished state even
    // when the batch outran the first period.
    opts.on_heartbeat(make_heartbeat());
  }

  RunTelemetry& t = rep.telemetry;
  t.wall_ms = ms_between(batch_start, Clock::now());
  t.failed_jobs = failed;
  t.cancelled_jobs = cancelled;
  for (const JobResult& r : rep.results) {
    t.busy_ms += r.wall_ms;
    if (r.ok) {
      t.instructions += r.result.core.instructions;
      const core::StageStats& s = r.result.core.stages;
      t.stages.retire_records += s.retire_records;
      t.stages.probe_records += s.probe_records;
      t.stages.fetch_records += s.fetch_records;
      t.stages.memsys_records += s.memsys_records;
      t.stages.retire_ns += s.retire_ns;
      t.stages.probe_ns += s.probe_ns;
      t.stages.fetch_ns += s.fetch_ns;
      t.stages.memsys_ns += s.memsys_ns;
    }
  }
  if (t.wall_ms > 0) {
    t.jobs_per_sec = 1000.0 * static_cast<double>(t.total_jobs) / t.wall_ms;
    t.utilization =
        t.busy_ms / (static_cast<double>(t.workers) * t.wall_ms);
  }
  t.mips = safe_mips(t.instructions, t.wall_ms);
  // Report this batch's contribution: the shared-cache path subtracts the
  // pre-batch counter values so a daemon's telemetry stays per-request.
  const ExecCacheStats cache_after = cache->stats();
  t.arenas_built = cache_after.trace_builds - cache_before.trace_builds;
  t.snapshots_built =
      cache_after.snapshot_builds - cache_before.snapshot_builds;
  t.snapshot_resumes =
      cache_after.snapshot_resumes - cache_before.snapshot_resumes;
  t.trace_evictions =
      cache_after.trace_evictions - cache_before.trace_evictions;
  t.snapshot_evictions =
      cache_after.snapshot_evictions - cache_before.snapshot_evictions;
  // A peak is no counter: a caller's cache reports its lifetime one.
  t.arena_high_water = cache_after.arena_high_water;
  return rep;
}

RunReport run_sweep(const SweepSpec& spec, const RunOptions& opts) {
  return run_jobs(spec.expand(), opts);
}

}  // namespace ppf::runlab
