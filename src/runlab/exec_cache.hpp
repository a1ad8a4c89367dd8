// runlab: process-lifetime execution caches.
//
// A batch run reuses two expensive artifacts across jobs: materialized
// trace arenas (one per distinct benchmark name x seed; a mix name such
// as em3d+gzip/100000 is one trace like any other) and warmup snapshots
// (one per distinct trace x warmup-relevant config; see sim::warmup_key).
// Static-filter jobs read the arena twice, once per phase of their
// profile/measure flow; they share no snapshot (their filter is external).
// A static mix profiles on its first program, which is not its trace, so
// it declares no reads and streams both phases as execute_job does.
// ExecCache holds that state in an object a caller may keep alive for as
// long as it likes — the sweep-as-a-service daemon (src/serve) owns one
// for its whole process lifetime, so every request after the first hits
// warm arenas and warm machines.
//
// An arena costs the generation of its trace plus its memory; streaming
// the generator costs only the generation. So an arena, too, is built
// only where it will be reused. note_demand() counts each trace key's
// declared reads (two for a static-filter job), and execute() takes the
// job's off: a declared job whose trace has fewer than two reads left,
// and no arena resident or being built, streams its generator. Taking
// the reads and claiming a build are one step under the lock, so a job
// that decides later sees the arena an earlier one is building. A job
// that was never declared reads a speculative arena.
//
// A snapshot costs a warmup plus a deep copy of the machine per resume,
// and its residency; warming up in place costs only the warmup. So a
// snapshot is built only where it will be reused. note_demand() counts
// the declared consumers of each snapshot key, and execute() takes one
// off and then: resumes from a snapshot that is resident or being built;
// builds one when another declared consumer remains; warms up in place
// when it is the key's last declared consumer; and builds one anyway for
// a job that was never declared (every serve request), betting that a
// later request shares its warmup. A snapshot stays valid when its
// arena is regrown for a longer job: the regrown arena extends the old
// one record for record, and the job resumes over the longer of the two.
// Arenas regrow to at least twice their length.
//
// Declared artifacts leave the cache with their last declared consumer:
// an arena when the last declared read of its trace takes its pointer, a
// snapshot when the last declared consumer of its key resumes it. The
// jobs holding them keep them alive until they finish. An artifact whose
// last claim arrives while it is still being built leaves at once, and
// its finished build adds nothing to the resident bytes, so what stays
// resident does not depend on the worker count. A drop is not an
// eviction: no counter moves. run_jobs dispatches a batch trace by
// trace (runner.hpp), so a batch keeps about one arena per worker alive,
// whatever its size; stats() reports the most arenas alive at once. An
// undeclared job's artifacts stay: they are what a cache serving many
// requests warm is for.
//
// A cache that outlives a batch must also be bounded: both stores carry
// an optional LRU byte budget (trace_cache_mb= / snapshot_cache_mb= in
// the CLIs). Eviction is invisible in results — a rebuilt arena or
// snapshot is byte-identical to the evicted one (the generators and the
// warmup phase are deterministic; guarded by
// tests/runlab/exec_cache_test.cpp) — it only costs rebuild time, which
// the eviction counters make observable.
//
// Thread safety: fully concurrent. The first caller to need a key builds
// it; concurrent callers for the same key block on a shared_future while
// different keys build in parallel. Build failures propagate to every
// waiter as the original exception.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/prof.hpp"
#include "runlab/sweep.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "workload/materialized.hpp"

namespace ppf::runlab {

struct ExecCacheConfig {
  /// Materialize each distinct (benchmark, seed) trace once and share it
  /// across jobs. Off = every job streams its own generator (results are
  /// byte-identical either way).
  bool trace_cache = true;
  /// Run warmup once per distinct warmup-relevant config and clone the
  /// warm machine into matching jobs. Requires trace_cache.
  bool warmup_share = true;
  /// LRU byte budget for resident trace arenas; 0 = unbounded. The entry
  /// being built/used is never evicted, so a budget smaller than one
  /// arena still works (the cache just stops retaining).
  std::size_t trace_budget_bytes = 0;
  /// LRU byte budget for resident warmup snapshots; 0 = unbounded.
  std::size_t snapshot_budget_bytes = 0;
  /// Optional wall-clock profiler: when set, execute() wraps its cache
  /// probe and simulation in PPF_PROF_SCOPE probes (prof.runlab.*).
  /// Telemetry only — results are byte-identical either way.
  obs::Profiler* profiler = nullptr;
};

/// Wall-clock telemetry for one execute() call (feeds the serve layer's
/// request spans). Never part of results or signatures.
struct ExecTimings {
  double probe_ms = 0.0;  ///< arena + snapshot cache acquisition
  double sim_ms = 0.0;    ///< simulation (cold run or snapshot resume)
  bool snapshot_resume = false;
};

/// Monotone counters + point-in-time residency. Snapshot via stats();
/// callers needing per-batch deltas subtract two snapshots.
struct ExecCacheStats {
  std::uint64_t trace_builds = 0;      ///< arenas materialized
  std::uint64_t trace_hits = 0;        ///< jobs served by a resident arena
  std::uint64_t trace_evictions = 0;   ///< arenas dropped (budget or regrow)
  std::uint64_t snapshot_builds = 0;
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_evictions = 0;
  std::uint64_t snapshot_resumes = 0;  ///< jobs that skipped warmup
  std::size_t trace_bytes = 0;         ///< resident arena bytes now
  std::size_t snapshot_bytes = 0;      ///< resident snapshot bytes now
  /// Most arenas alive at once since the cache was made: being built,
  /// or built and still held by the cache, a job or a snapshot.
  std::size_t arena_high_water = 0;
};

class ExecCache {
 public:
  explicit ExecCache(const ExecCacheConfig& cfg = {});

  ExecCache(const ExecCache&) = delete;
  ExecCache& operator=(const ExecCache&) = delete;

  /// Record that `job` will run soon, once: the arena for its
  /// (benchmark, seed) is built only if its trace is read twice, sized
  /// for the hungriest declared consumer in one build, and its warmup
  /// snapshot is built only if a second declared job will resume it.
  /// Optional — execute() sizes on demand and builds arenas and
  /// snapshots speculatively for undeclared jobs — but a batch that
  /// declares all jobs up front builds each arena at most once and no
  /// arena or snapshot that only one job would use.
  void note_demand(const Job& job);

  /// Execute one job through the caches: arena cursors, plus a
  /// warmup-snapshot resume where the rule in the file comment picks
  /// one; plain execute_job otherwise (trace_cache off, or a trace the
  /// rule streams). Throws what the simulation throws. `timings`
  /// (optional) receives wall-clock telemetry for the call.
  sim::SimResult execute(const Job& job, ExecTimings* timings = nullptr);

  [[nodiscard]] ExecCacheStats stats() const;

  /// The trace a job reads: its benchmark name and seed.
  static std::string trace_key(const Job& job);

 private:
  using ArenaPtr = std::shared_ptr<const workload::MaterializedTrace>;
  using SnapshotPtr = std::shared_ptr<const sim::WarmupSnapshot>;

  template <typename T>
  struct Entry {
    std::shared_future<T> fut;
    std::uint64_t id = 0;       ///< build identity (bytes arrive late)
    std::size_t records = 0;    ///< records an arena entry covers
    std::size_t bytes = 0;      ///< 0 until the build completes
    std::uint64_t tick = 0;     ///< LRU clock at last access
  };

  /// Records the job consumes from its trace (measurement window plus
  /// active warmup).
  static std::size_t needed_records(const Job& job);
  static std::string snapshot_key(const Job& job);
  static bool is_static(const Job& job);
  /// A static job whose profile program (its mix's first) is another
  /// trace than the one it measures: it streams both.
  static bool is_static_mix(const Job& job);
  /// Times `job` reads its trace.
  static std::size_t trace_reads(const Job& job);
  /// Whether `job` may resume from (or build) a warmup snapshot.
  [[nodiscard]] bool shares_warmup(const Job& job) const;
  /// Raise the arena-size watermark of `job`'s trace to its need.
  void raise_watermark(const Job& job);

  /// The arena `job` reads, shared or built; null when the job should
  /// stream its generator instead (the rule in the file comment).
  ArenaPtr arena_for(const Job& job);
  SnapshotPtr snapshot_for(const Job& job, const ArenaPtr& arena);

  template <typename T>
  void finalize_entry(std::unordered_map<std::string, Entry<T>>& map,
                      const std::string& key, std::uint64_t id,
                      std::size_t bytes, std::size_t& total,
                      std::size_t budget, std::uint64_t& evictions);

  /// Drop `key`'s entry, which no declared job will claim again. An
  /// entry still being built leaves too: finalize_entry then finds it
  /// gone and adds nothing to the resident total. Called with mu_ held.
  template <typename T>
  void drop_entry(std::unordered_map<std::string, Entry<T>>& map,
                  const std::string& key, std::size_t& total);

  template <typename T>
  void evict_over_budget(std::unordered_map<std::string, Entry<T>>& map,
                         std::size_t& total, std::size_t budget,
                         std::uint64_t keep_id, std::uint64_t& evictions);

  const ExecCacheConfig cfg_;

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;   // PPF_GUARDED_BY(mu_)
  std::uint64_t lru_clock_ = 0;  // PPF_GUARDED_BY(mu_)
  std::unordered_map<std::string, std::size_t> demand_;  // PPF_GUARDED_BY(mu_)
  /// Declared reads per trace key not yet executed; erased at 0.
  std::unordered_map<std::string, std::size_t> reads_;  // PPF_GUARDED_BY(mu_)
  /// Declared consumers per snapshot key not yet executed; erased at 0.
  std::unordered_map<std::string, std::size_t> consumers_;  // PPF_GUARDED_BY(mu_)
  std::unordered_map<std::string, Entry<ArenaPtr>> arenas_;  // PPF_GUARDED_BY(mu_)
  std::unordered_map<std::string, Entry<SnapshotPtr>> snaps_;  // PPF_GUARDED_BY(mu_)
  std::size_t arena_bytes_ = 0;  // PPF_GUARDED_BY(mu_) finalized resident sum
  std::size_t snapshot_bytes_ = 0;  // PPF_GUARDED_BY(mu_)
  std::size_t arenas_building_ = 0;  // PPF_GUARDED_BY(mu_)
  /// Arenas built and not yet seen freed, held weakly (pruned at each
  /// build): the unexpired ones are alive.
  std::vector<std::weak_ptr<const workload::MaterializedTrace>> built_arenas_;  // PPF_GUARDED_BY(mu_)
  ExecCacheStats counters_;  // PPF_GUARDED_BY(mu_) (bytes fields unused)
};

}  // namespace ppf::runlab
