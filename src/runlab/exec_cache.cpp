#include "runlab/exec_cache.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "runlab/runner.hpp"
#include "sim/experiment.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::runlab {

namespace {

std::uint64_t active_warmup(const sim::SimConfig& cfg) {
  return cfg.warmup_instructions < cfg.max_instructions
             ? cfg.warmup_instructions
             : 0;
}

using ProfClock = std::chrono::steady_clock;

double ms_since(ProfClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(ProfClock::now() - t0)
      .count();
}

/// Takes `n` of `key`'s declared claims; true when they were its last.
/// A key never declared has none to take.
bool take_claims(std::unordered_map<std::string, std::size_t>& claims,
                 const std::string& key, std::size_t n) {
  const auto it = claims.find(key);
  if (it == claims.end()) return false;
  it->second -= std::min(it->second, n);
  if (it->second != 0) return false;
  claims.erase(it);
  return true;
}

}  // namespace

ExecCache::ExecCache(const ExecCacheConfig& cfg)
    : cfg_{cfg.trace_cache,
           // Snapshots resume from a seekable arena, so sharing them
           // without the trace cache is not possible.
           cfg.trace_cache && cfg.warmup_share, cfg.trace_budget_bytes,
           cfg.snapshot_budget_bytes, cfg.profiler} {}

std::size_t ExecCache::needed_records(const Job& job) {
  return job.config.max_instructions + active_warmup(job.config);
}

std::string ExecCache::trace_key(const Job& job) {
  return job.benchmark + '|' + std::to_string(job.config.seed);
}

std::string ExecCache::snapshot_key(const Job& job) {
  return trace_key(job) + '|' + sim::warmup_key(job.config);
}

bool ExecCache::shares_warmup(const Job& job) const {
  return cfg_.warmup_share && active_warmup(job.config) > 0 &&
         !is_static(job);
}

bool ExecCache::is_static(const Job& job) {
  return job.config.filter == "static";
}

bool ExecCache::is_static_mix(const Job& job) {
  if (!is_static(job)) return false;
  try {
    return workload::parse_benchmark_name(job.benchmark).programs.size() > 1;
  } catch (const std::invalid_argument&) {
    return false;  // fails in the arena build, as any bad name does
  }
}

void ExecCache::raise_watermark(const Job& job) {
  const std::size_t need = needed_records(job);
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t& watermark = demand_[trace_key(job)];
  if (need > watermark) watermark = need;
}

std::size_t ExecCache::trace_reads(const Job& job) {
  // The static filter's profile and measure phases each read the trace.
  return is_static(job) ? 2 : 1;
}

void ExecCache::note_demand(const Job& job) {
  if (!cfg_.trace_cache || is_static_mix(job)) return;
  raise_watermark(job);
  std::lock_guard<std::mutex> lk(mu_);
  reads_[trace_key(job)] += trace_reads(job);
  if (shares_warmup(job)) ++consumers_[snapshot_key(job)];
}

sim::SimResult ExecCache::execute(const Job& job, ExecTimings* timings) {
  const ProfClock::time_point probe_start = ProfClock::now();
  ArenaPtr arena;
  SnapshotPtr snap;
  if (cfg_.trace_cache && !is_static_mix(job)) {
    PPF_PROF_SCOPE(cfg_.profiler, obs::ProfScopeId::RunlabProbe);
    arena = arena_for(job);
    if (arena != nullptr) {
      // Only after the build: a failed one (an arena too large to
      // allocate) must not size every later build of the trace.
      raise_watermark(job);
      if (shares_warmup(job)) snap = snapshot_for(job, arena);
    }
  }
  if (arena == nullptr) {
    PPF_PROF_SCOPE(cfg_.profiler, obs::ProfScopeId::RunlabSimulate);
    const ProfClock::time_point t0 = ProfClock::now();
    sim::SimResult result = execute_job(job);
    if (timings != nullptr) timings->sim_ms = ms_since(t0);
    return result;
  }
  if (timings != nullptr) timings->probe_ms = ms_since(probe_start);

  PPF_PROF_SCOPE(cfg_.profiler, obs::ProfScopeId::RunlabSimulate);
  const ProfClock::time_point sim_start = ProfClock::now();
  if (snap != nullptr) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++counters_.snapshot_resumes;
    }
    // The snapshot may sit on a longer arena than this job holds (one
    // regrown after this job fetched its arena, or an evicted arena
    // rebuilt shorter since); either arena covers this job's window.
    const ArenaPtr& window =
        snap->arena()->size() > arena->size() ? snap->arena() : arena;
    sim::SimResult result = sim::run_from_snapshot(job.config, *snap, window);
    if (timings != nullptr) {
      timings->sim_ms = ms_since(sim_start);
      timings->snapshot_resume = true;
    }
    return result;
  }
  workload::TraceCursor cursor(arena);
  sim::SimResult result;
  if (is_static(job)) {
    // Both phases of the two-phase flow read the one arena.
    workload::TraceCursor measure(arena);
    result = sim::run_static_filter(job.config, cursor, measure);
  } else {
    result = sim::Simulator(job.config).run(cursor);
  }
  if (timings != nullptr) timings->sim_ms = ms_since(sim_start);
  return result;
}

ExecCacheStats ExecCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ExecCacheStats out = counters_;
  out.trace_bytes = arena_bytes_;
  out.snapshot_bytes = snapshot_bytes_;
  return out;
}

template <typename T>
void ExecCache::drop_entry(std::unordered_map<std::string, Entry<T>>& map,
                           const std::string& key, std::size_t& total) {
  const auto it = map.find(key);
  if (it == map.end()) return;
  total -= it->second.bytes;
  map.erase(it);
}

template <typename T>
void ExecCache::evict_over_budget(
    std::unordered_map<std::string, Entry<T>>& map, std::size_t& total,
    std::size_t budget, std::uint64_t keep_id, std::uint64_t& evictions) {
  // Called with mu_ held. Only finalized entries (bytes known, future
  // ready) are candidates; the entry just built/used is pinned so a
  // budget smaller than a single artifact degrades to "retain nothing"
  // instead of thrashing the artifact out from under its own consumer.
  if (budget == 0) return;
  while (total > budget) {
    auto victim = map.end();
    for (auto it = map.begin(); it != map.end(); ++it) {
      if (it->second.bytes == 0 || it->second.id == keep_id) continue;
      if (victim == map.end() || it->second.tick < victim->second.tick) {
        victim = it;
      }
    }
    if (victim == map.end()) return;
    total -= victim->second.bytes;
    ++evictions;
    map.erase(victim);
  }
}

template <typename T>
void ExecCache::finalize_entry(std::unordered_map<std::string, Entry<T>>& map,
                               const std::string& key, std::uint64_t id,
                               std::size_t bytes, std::size_t& total,
                               std::size_t budget, std::uint64_t& evictions) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map.find(key);
  // The entry may have been replaced (regrown) or dropped while we
  // built: then this build's bytes never enter the resident total — the
  // artifact lives only as long as its waiters hold the shared_future.
  if (it == map.end() || it->second.id != id) return;
  it->second.bytes = bytes;
  total += bytes;
  evict_over_budget(map, total, budget, id, evictions);
}

ExecCache::ArenaPtr ExecCache::arena_for(const Job& job) {
  const std::string key = trace_key(job);
  const std::size_t need = needed_records(job);

  std::promise<ArenaPtr> prom;
  std::shared_future<ArenaPtr> fut;
  std::uint64_t id = 0;
  std::size_t build_records = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = arenas_.find(key);
    const bool resident = it != arenas_.end() && it->second.records >= need;
    // An undeclared job reads an arena, a bet on reuse; a declared one
    // takes its reads off the trace, and the last of them drops the
    // arena once it holds the arena's future.
    const auto rit = reads_.find(key);
    const bool lone_read = rit != reads_.end() && rit->second < 2;
    const bool last_read = take_claims(reads_, key, trace_reads(job));
    if (lone_read && !resident) {
      // The trace's last declared read, and no arena holds it: the job
      // streams, and gives up its claim on a warmup snapshot too.
      if (shares_warmup(job) &&
          take_claims(consumers_, snapshot_key(job), 1)) {
        drop_entry(snaps_, snapshot_key(job), snapshot_bytes_);
      }
      drop_entry(arenas_, key, arena_bytes_);  // too short to serve it
      return nullptr;
    }
    if (resident) {
      it->second.tick = ++lru_clock_;
      ++counters_.trace_hits;
      fut = it->second.fut;
    } else {
      const auto dit = demand_.find(key);
      build_records =
          dit != demand_.end() && dit->second > need ? dit->second : need;
      if (it != arenas_.end()) {
        // Regrow: a job arrived needing more records than the resident
        // arena holds. The old entry leaves the cache (waiters and
        // snapshots keep it alive) and one at least twice as long is
        // built, so a run of ever-longer jobs regrows a logarithmic
        // number of times. The deterministic generators make the new
        // arena a byte-identical extension of the old.
        build_records = std::max(build_records, 2 * it->second.records);
        arena_bytes_ -= it->second.bytes;
        ++counters_.trace_evictions;
        arenas_.erase(it);
      }
      id = next_id_++;
      fut = prom.get_future().share();
      Entry<ArenaPtr> e;
      e.fut = fut;
      e.id = id;
      e.records = build_records;
      e.tick = ++lru_clock_;
      arenas_.emplace(key, std::move(e));
      ++counters_.trace_builds;
      // Arenas alive: being built, or built and not yet freed. The count
      // rises only here, so its peak is seen here.
      ++arenas_building_;
      std::erase_if(built_arenas_, [](const auto& a) { return a.expired(); });
      counters_.arena_high_water =
          std::max(counters_.arena_high_water,
                   arenas_building_ + built_arenas_.size());
    }
    if (last_read) drop_entry(arenas_, key, arena_bytes_);
  }
  if (id != 0) {
    try {
      auto src = workload::make_benchmark(job.benchmark, job.config.seed);
      prom.set_value(workload::materialize(*src, build_records));
    } catch (...) {
      // Parked in the shared future: the builder and every concurrent
      // waiter rethrow from get(), each job records the failure in its
      // own slot, and no thread blocks on an unset promise.
      prom.set_exception(std::current_exception());
      {
        std::lock_guard<std::mutex> lk(mu_);
        --arenas_building_;
        auto it = arenas_.find(key);
        if (it != arenas_.end() && it->second.id == id) arenas_.erase(it);
      }
      return fut.get();  // rethrows
    }
    const ArenaPtr built = fut.get();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --arenas_building_;
      built_arenas_.push_back(built);
    }
    finalize_entry(arenas_, key, id, built->bytes(), arena_bytes_,
                   cfg_.trace_budget_bytes, counters_.trace_evictions);
    return built;
  }
  return fut.get();
}

ExecCache::SnapshotPtr ExecCache::snapshot_for(const Job& job,
                                               const ArenaPtr& arena) {
  const std::string key = snapshot_key(job);

  std::promise<SnapshotPtr> prom;
  std::shared_future<SnapshotPtr> fut;
  std::uint64_t id = 0;
  {
    // Taking this job's declared claim and choosing among resume, build
    // and in-place warmup happen under one lock, so every consumer of a
    // key sees the same sequence of decisions at any worker count.
    std::lock_guard<std::mutex> lk(mu_);
    const bool last_declared = take_claims(consumers_, key, 1);
    auto it = snaps_.find(key);
    if (it != snaps_.end()) {
      it->second.tick = ++lru_clock_;
      ++counters_.snapshot_hits;
      fut = it->second.fut;
      if (last_declared) drop_entry(snaps_, key, snapshot_bytes_);
    } else if (last_declared) {
      // No later declared job resumes this warm machine: warming up in
      // place is cheaper than building it and copying it once.
      return nullptr;
    } else {
      // Another declared consumer remains, or the job was never declared
      // (a serve request, a direct execute) and the build is a bet on
      // one arriving.
      id = next_id_++;
      fut = prom.get_future().share();
      Entry<SnapshotPtr> e;
      e.fut = fut;
      e.id = id;
      e.tick = ++lru_clock_;
      snaps_.emplace(key, std::move(e));
      ++counters_.snapshot_builds;
    }
  }
  if (id != 0) {
    try {
      prom.set_value(sim::make_warmup_snapshot(job.config, arena));
    } catch (...) {
      prom.set_exception(std::current_exception());
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = snaps_.find(key);
        if (it != snaps_.end() && it->second.id == id) snaps_.erase(it);
      }
      return fut.get();  // rethrows
    }
    const SnapshotPtr built = fut.get();
    finalize_entry(snaps_, key, id,
                   built != nullptr ? built->estimated_bytes() : 0,
                   snapshot_bytes_, cfg_.snapshot_budget_bytes,
                   counters_.snapshot_evictions);
    return built;
  }
  return fut.get();
}

}  // namespace ppf::runlab
