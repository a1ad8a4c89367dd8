#include "sim/snapshot.hpp"

#include "common/assert.hpp"
#include "sim/config_apply.hpp"

namespace ppf::sim {

// The key is the values of the warm rows of config_schema().
// Note: cfg.obs, cfg.check, and cfg.diff_fail_at are deliberately NOT
// part of the key. Observability never shapes machine state (the
// recorder only reads counters), invariant checks only read component
// state, and the diff_fail_at fault hook throws before any simulation —
// so a snapshot warmed without any of them is valid for runs with any
// such setting; each resumed run attaches its own fresh
// Recorder/Checker after cloning, and a fault-injected job fails at the
// run_from_snapshot entry without touching the shared snapshot.
std::string warmup_key(const SimConfig& cfg) {
  std::string key;
  key.reserve(384);
  for (const ConfigRow& row : config_schema()) {
    if (!row.warm) continue;
    row.access.get(cfg, key);
    key += '|';
  }
  return key;
}

std::size_t WarmupSnapshot::estimated_bytes() const {
  // Tag/meta overhead per line plus the data arrays themselves, the
  // history table, and per-entry queue/ROB state. Deliberately a config
  // function: it must be identical for every snapshot sharing a
  // warmup_key, or cache-budget eviction order would depend on build
  // order.
  const auto cache_bytes = [](const mem::CacheConfig& c) {
    const std::size_t lines =
        c.line_bytes > 0 ? c.size_bytes / c.line_bytes : 0;
    return c.size_bytes + lines * 24;
  };
  std::size_t bytes = cache_bytes(cfg_.l1d) + cache_bytes(cfg_.l1i) +
                      cache_bytes(cfg_.l2);
  bytes += cfg_.history.entries * 8;
  bytes += cfg_.filter_recovery_entries * 16;
  bytes += cfg_.victim_cache_entries * 48;
  bytes += cfg_.prefetch_queue_entries * 32;
  bytes += (cfg_.core.rob_entries + cfg_.core.lsq_entries) * 64;
  bytes += cfg_.core.bimodal.entries + cfg_.core.btb.sets * cfg_.core.btb.ways * 16;
  bytes += 64 * 1024;  // fixed overhead: engine, maps, bookkeeping
  return bytes;
}

std::shared_ptr<const WarmupSnapshot> make_warmup_snapshot(
    const SimConfig& cfg,
    std::shared_ptr<const workload::MaterializedTrace> arena) {
  const std::uint64_t warmup =
      cfg.warmup_instructions < cfg.max_instructions ? cfg.warmup_instructions
                                                     : 0;
  if (warmup == 0 || arena == nullptr || arena->size() < warmup) {
    return nullptr;
  }

  auto snap = std::shared_ptr<WarmupSnapshot>(new WarmupSnapshot());
  snap->cfg_ = cfg;
  snap->arena_ = std::move(arena);
  snap->mem_ = std::make_unique<MemoryHierarchy>(cfg);
  snap->cursor_ = std::make_unique<workload::TraceCursor>(snap->arena_);
  snap->engine_ = make_sim_engine(cfg, *snap->mem_);
  snap->engine_->bind(*snap->cursor_);
  snap->engine_->run_until_dispatched(warmup);
  if (snap->engine_->dispatched() < warmup) return nullptr;
  snap->warmup_ = warmup;
  return snap;
}

SimResult run_from_snapshot(
    const SimConfig& cfg, const WarmupSnapshot& snap,
    const std::shared_ptr<const workload::MaterializedTrace>& arena) {
  maybe_inject_fault(cfg);
  PPF_CHECK_MSG(warmup_key(cfg) == warmup_key(snap.config()),
                "snapshot reused across warmup-incompatible configs");
  PPF_CHECK_MSG(cfg.warmup_instructions < cfg.max_instructions,
                "snapshot resume requires an active warmup");
  PPF_CHECK_MSG(arena != nullptr && arena->size() >= snap.arena_->size(),
                "snapshot resumed over an arena shorter than its own");
  PPF_CHECK_MSG(arena->extends(*snap.arena_),
                "snapshot resumed over a different trace");

  MemoryHierarchy mem(*snap.mem_);
  workload::TraceCursor cursor(arena, snap.cursor_->pos());
  const auto engine = snap.engine_->clone_rebound(mem, mem, cursor);
  PPF_CHECK(engine != nullptr);

  // Attach a fresh recorder before the stats reset so the reset doubles
  // as the obs baseline capture — the exact point the cold path samples.
  std::unique_ptr<obs::Recorder> rec;
  if (cfg.obs.enabled) {
    rec = std::make_unique<obs::Recorder>(cfg.obs);
    mem.attach_obs(*rec);
    engine->register_obs(rec->registry());
  }
  // Same for the checker: attaching before reset_stats captures the
  // conservation baseline at the identical mid-cycle point as the cold
  // path's warmup-boundary reset.
  std::unique_ptr<check::Checker> chk;
  if (cfg.check.mode != check::CheckMode::Off) {
    chk = std::make_unique<check::Checker>(cfg.check);
    mem.attach_checks(*chk);
    engine->register_checks(chk->registry());
  }
  if (cfg.obs.heartbeat_slot != nullptr) {
    engine->set_heartbeat(cfg.obs.heartbeat_slot);
  }

  // Same sequence the cold path runs at the boundary: statistics reset,
  // then the measurement window opens, then the run completes.
  mem.reset_stats();
  engine->begin_window();
  const core::CoreResult core =
      engine->finish(cfg.max_instructions + snap.warmup_);
  return collect_result(cfg, mem, core, cursor.name());
}

}  // namespace ppf::sim
