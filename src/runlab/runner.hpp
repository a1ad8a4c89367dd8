// runlab: batch execution — runs an expanded job list on a worker pool,
// one self-contained Simulator per job, and aggregates the results back
// into submission order regardless of completion order.
//
// Dispatch is trace-major: jobs are grouped by the trace they read
// (benchmark and seed, ExecCache::trace_key), the groups in order of
// first appearance and each group in index order. A trace's jobs thus
// run together, and the execution cache drops its arena with their last
// read, so a batch holds about one arena per worker, not one per trace.
// With one worker the completion order is this dispatch order.
//
// Failure capture: a job whose config or benchmark is broken (or that
// exceeds the soft timeout) produces an error record in its slot; the
// rest of the batch is unaffected.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "runlab/sweep.hpp"
#include "sim/simulator.hpp"

namespace ppf::runlab {

class ExecCache;

/// Outcome of one job, in its submission slot.
struct JobResult {
  Job job;
  bool ok = false;
  bool cancelled = false;  ///< skipped because shutdown was requested
  std::string error;       ///< set when !ok (exception text or timeout)
  sim::SimResult result;   ///< meaningful only when ok
  double wall_ms = 0.0;    ///< job wall time (telemetry; not in the JSON)
  std::size_t worker = 0;  ///< worker that ran it (telemetry)
  /// Measurement-window instructions per second of job wall time, in
  /// millions (telemetry; not in the JSON payload).
  double mips = 0.0;
};

/// Snapshot handed to the progress callback after each job completes.
struct Progress {
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t failed = 0;
  const JobResult* last = nullptr;  ///< the job that just finished
};

/// Instructions / wall-time in millions-per-second, hardened against the
/// degenerate denominators a fast job can produce (zero or sub-resolution
/// wall time would otherwise yield inf/NaN in telemetry payloads). The
/// denominator is clamped to 1 microsecond; a non-finite result reports 0.
[[nodiscard]] double safe_mips(std::uint64_t instructions, double wall_ms);

/// Periodic liveness snapshot of a running batch, emitted from a monitor
/// thread every RunOptions::heartbeat_period_ms. `instructions` counts
/// every dispatched instruction so far (warmup included, in-flight jobs
/// included) against `expected_instructions` for the whole batch, which is
/// what makes the ETA meaningful mid-job rather than only at job
/// boundaries. Wall-clock derived fields (mips, eta_s) are telemetry —
/// never part of the deterministic output payload.
struct Heartbeat {
  std::size_t done = 0;    ///< jobs finished
  std::size_t total = 0;   ///< jobs submitted
  std::size_t failed = 0;  ///< jobs finished unsuccessfully
  std::uint64_t instructions = 0;           ///< dispatched so far, all jobs
  std::uint64_t expected_instructions = 0;  ///< batch total when done
  double wall_ms = 0.0;  ///< batch wall time at this heartbeat
  double mips = 0.0;     ///< instructions / wall_ms (safe_mips)
  double eta_s = 0.0;    ///< remaining work / current rate; 0 if unknown
};

struct RunOptions {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t workers = 0;
  /// Soft per-job timeout in ms; 0 disables. A job cannot be interrupted
  /// mid-simulation, so an overrunning job completes but its slot is
  /// recorded as an error. Timeouts depend on wall-clock load, so a
  /// sweep using them is exempt from the byte-identical-output contract.
  double job_timeout_ms = 0.0;
  /// Materialize each distinct (benchmark, seed) trace once per batch and
  /// hand every job a cursor over the shared arena, instead of paying
  /// streaming generation per job. Results are byte-identical either way
  /// (guarded by tests/sim/trace_equivalence_test.cpp).
  bool trace_cache = true;
  /// Run the warmup phase once per distinct warmup-relevant config (see
  /// sim::warmup_key) and resume each matching job from a clone of the
  /// paused machine. Only fires between jobs whose configs agree on
  /// everything but max_instructions / energy prices, and only where two
  /// or more such jobs share a trace (a lone job warms up in place;
  /// ExecCache); results are byte-identical to the cold path
  /// (tests/sim/snapshot_test.cpp). Requires trace_cache (snapshots
  /// resume from a seekable arena).
  bool warmup_share = true;
  /// LRU byte budgets for the per-batch caches, in MB; 0 = unbounded.
  /// Only consulted when `cache` is null (a shared cache carries its own
  /// budgets). Eviction never changes results — only rebuild time.
  std::size_t trace_cache_mb = 0;
  std::size_t snapshot_cache_mb = 0;
  /// Externally owned execution cache shared across run_jobs calls (the
  /// serve daemon keeps one for its process lifetime). Null = build a
  /// private cache for this batch from the four knobs above.
  ExecCache* cache = nullptr;
  /// Cooperative cancellation, polled before each job starts. Once it
  /// returns true, unstarted jobs complete immediately as cancelled
  /// records (ok=false, cancelled=true) while in-flight jobs drain
  /// normally — the contract behind graceful SIGINT/SIGTERM handling.
  std::function<bool()> cancel;
  /// Called after every job completion, serialized across workers.
  std::function<void(const Progress&)> on_progress;
  /// Called from a dedicated monitor thread roughly every
  /// heartbeat_period_ms while the batch runs, plus once at the end.
  /// Setting it wires a per-job heartbeat slot into each job's ObsConfig
  /// so the core publishes its dispatched count as it simulates; leaving
  /// it empty adds no per-instruction work at all.
  std::function<void(const Heartbeat&)> on_heartbeat;
  /// Monitor thread period for on_heartbeat, in milliseconds.
  double heartbeat_period_ms = 250.0;
};

/// Convenience: options with just the worker count set.
[[nodiscard]] inline RunOptions with_workers(std::size_t n) {
  RunOptions opts;
  opts.workers = n;
  return opts;
}

/// Run-level telemetry (reported out of band — never part of the
/// deterministic JSON/CSV payload).
struct RunTelemetry {
  std::size_t total_jobs = 0;
  std::size_t failed_jobs = 0;      ///< real failures (cancelled excluded)
  std::size_t cancelled_jobs = 0;   ///< skipped by a shutdown request
  std::size_t workers = 0;
  double wall_ms = 0.0;       ///< whole-batch wall time
  double busy_ms = 0.0;       ///< sum of per-job wall times
  double jobs_per_sec = 0.0;
  double utilization = 0.0;   ///< busy / (workers * wall)
  /// Measurement-window instructions across all succeeded jobs (warmup
  /// work, shared or not, is deliberately excluded so the cold and warm
  /// paths report a comparable denominator).
  std::uint64_t instructions = 0;
  double mips = 0.0;          ///< instructions / batch wall time, in millions
  std::size_t arenas_built = 0;     ///< distinct traces materialized
  std::size_t snapshots_built = 0;  ///< distinct warmups executed
  std::size_t snapshot_resumes = 0; ///< jobs that skipped warmup via a clone
  std::size_t trace_evictions = 0;    ///< arenas dropped by the byte budget
  std::size_t snapshot_evictions = 0; ///< snapshots dropped by the budget
  /// Most arenas alive at once, being built or held by the cache, a job
  /// or a snapshot (ExecCacheStats::arena_high_water). Unlike the counts
  /// above it is not per batch: a caller's cache reports its lifetime
  /// peak.
  std::size_t arena_high_water = 0;
  /// Stage-kernel breakdown summed over succeeded jobs (window record
  /// counts and sampled ns estimates from occupancy-model jobs).
  core::StageStats stages;
};

struct RunReport {
  std::vector<JobResult> results;  ///< submission order: results[i].job.index == i
  RunTelemetry telemetry;
};

/// Execute one job synchronously on the calling thread: the cold
/// sim::run_benchmark of its config and benchmark name. Throws on bad
/// benchmark names etc.
sim::SimResult execute_job(const Job& job);

/// One-line identity + config string for a job, used to prefix every
/// failure record ("job 3 [bench=mcf filter=pc seed=7 ...]") so an error
/// aggregated out of a large batch is reproducible without the sweep.
[[nodiscard]] std::string job_repro(const Job& job);

/// Run `jobs` on a pool and collect ordered results + telemetry.
RunReport run_jobs(std::vector<Job> jobs, const RunOptions& opts = {});

/// expand() + run_jobs in one call.
RunReport run_sweep(const SweepSpec& spec, const RunOptions& opts = {});

}  // namespace ppf::runlab
