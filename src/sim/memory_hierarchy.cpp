#include "sim/memory_hierarchy.hpp"

#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "registry/registry.hpp"

namespace ppf::sim {

std::unique_ptr<filter::PollutionFilter> make_filter(const SimConfig& cfg,
                                                     const mem::Cache& l1) {
  registry::FilterContext ctx;
  ctx.history = cfg.history;
  ctx.adaptive = cfg.adaptive;
  ctx.deadblock = cfg.deadblock;
  ctx.perceptron = cfg.perceptron;
  ctx.inst_bytes = cfg.core.inst_bytes;
  ctx.l1 = &l1;
  return registry::make_filter(cfg.filter, ctx);
}

HierarchyState::HierarchyState(const SimConfig& cfg)
    : cfg_(cfg),
      l1d_(cfg.l1d, cfg.seed + 1),
      l1i_(cfg.l1i, cfg.seed + 2),
      l2_(cfg.l2, cfg.seed + 3),
      bus_(cfg.bus),
      dram_(cfg.dram),
      pq_(cfg.prefetch_queue_entries),
      mshr_(cfg.mshr_entries) {
  if (cfg.use_prefetch_buffer) buffer_.emplace(cfg.prefetch_buffer_entries);
  if (cfg.victim_cache_entries > 0) victim_.emplace(cfg.victim_cache_entries);
}

MemoryHierarchy::MemoryHierarchy(const SimConfig& cfg,
                                 filter::PollutionFilter* external_filter)
    : HierarchyState(cfg) {
  if (external_filter != nullptr) {
    active_filter_ = external_filter;
  } else {
    owned_filter_ = make_filter(cfg, l1d_);
    active_filter_ = owned_filter_.get();
  }
  registry::PrefetcherContext pctx;
  pctx.l1d = &l1d_;
  pctx.l2 = &l2_;
  pctx.nsp_degree = cfg.nsp_degree;
  pctx.pmp = cfg.pmp;
  // List order is generation order: candidates reach the filter and the
  // queue in this order every run (part of the determinism contract).
  for (const std::string& key : cfg.prefetchers) {
    prefetcher_.add(registry::make_prefetcher(key, pctx));
  }
}

namespace {

/// `clone`, a clone_rebound result. Null means the `kind` named `name`
/// cannot be cloned: throws std::runtime_error naming it.
template <typename T>
std::unique_ptr<T> require_clone(std::unique_ptr<T> clone, const char* kind,
                                 const char* name) {
  if (clone == nullptr) {
    throw std::runtime_error(std::string(kind) + " '" + name +
                             "' does not support clone_rebound");
  }
  return clone;
}

}  // namespace

MemoryHierarchy::MemoryHierarchy(const MemoryHierarchy& o)
    : HierarchyState(o) {
  if (o.owned_filter_ == nullptr) {
    throw std::runtime_error(
        "MemoryHierarchy: cannot clone a hierarchy using an external filter");
  }
  owned_filter_ = require_clone(o.owned_filter_->clone_rebound(l1d_), "filter",
                                o.owned_filter_->name());
  active_filter_ = owned_filter_.get();
  for (std::size_t i = 0; i < o.prefetcher_.num_children(); ++i) {
    const prefetch::Prefetcher& p = o.prefetcher_.child(i);
    prefetcher_.add(
        require_clone(p.clone_rebound(l1d_, l2_), "prefetcher", p.name()));
  }
}

void MemoryHierarchy::attach_obs(obs::Recorder& rec) {
  obs_ = &rec;
  obs::MetricRegistry& reg = rec.registry();
  l1d_.register_obs(reg, "l1d");
  l1i_.register_obs(reg, "l1i");
  l2_.register_obs(reg, "l2");
  bus_.register_obs(reg, "bus");
  dram_.register_obs(reg, "dram");
  pq_.register_obs(reg, "pq");
  mshr_.register_obs(reg, "mshr");
  active_filter_->register_obs(reg, "filter");
  prefetcher_.register_obs(reg, "prefetch");
  if (buffer_) {
    const mem::LineBuffer* b = &*buffer_;
    reg.add_counter("pfbuf.hits", [b] { return b->hits(); });
  }
  if (victim_) {
    const mem::LineBuffer* v = &*victim_;
    reg.add_counter("victim.hits", [v] { return v->hits(); });
  }
  reg.add_counter("classifier.issued",
                  [this] { return classifier_.issued().total(); });
  reg.add_counter("classifier.filtered",
                  [this] { return classifier_.filtered().total(); });
  reg.add_counter("classifier.good",
                  [this] { return classifier_.good().total(); });
  reg.add_counter("classifier.bad",
                  [this] { return classifier_.bad().total(); });
  reg.add_counter("classifier.squashed",
                  [this] { return classifier_.squashed(); });
  reg.add_counter("hier.demand_accesses",
                  [this] { return demand_accesses_; });
  reg.add_counter("hier.prefetch_l1_fills",
                  [this] { return prefetch_l1_fills_; });
  reg.add_counter("hier.recoveries", [this] { return recovered_; });
  reg.add_gauge("hier.ema_fill_interval",
                [this] { return ema_fill_interval_; });
  reg.add_histogram("l1d.load_latency", &load_latency_);
}

std::uint64_t MemoryHierarchy::unclassified_pib() const {
  std::uint64_t n = l1d_.pib_lines() + l2_.pib_lines();
  if (buffer_) n += buffer_->size();
  return n;
}

void MemoryHierarchy::attach_checks(check::Checker& chk) {
  chk_ = &chk;
  check::CheckRegistry& reg = chk.registry();
  l1d_.register_checks(reg, "l1d");
  l1i_.register_checks(reg, "l1i");
  l2_.register_checks(reg, "l2");
  bus_.register_checks(reg, "bus");
  dram_.register_checks(reg, "dram");
  pq_.register_checks(reg, "pq");
  mshr_.register_checks(reg, "mshr");
  active_filter_->register_checks(reg, "filter");
  prefetcher_.register_checks(reg, "prefetch");
  if (buffer_) buffer_->register_checks(reg, "pfbuf");
  if (victim_) victim_->register_checks(reg, "victim");
  // A snapshot clone attaches with warm, not-yet-classified prefetched
  // lines already resident; they are part of the starting balance.
  baseline_unclassified_ = unclassified_pib();
  reg.add("hier", [this](check::CheckContext& ctx) {
    ctx.require(ports_left_ <= cfg_.l1d.ports, "hier.port_balance", [&] {
      return std::to_string(ports_left_) + " ports left of " +
             std::to_string(cfg_.l1d.ports);
    });
    ctx.require(quiescent() == (pq_.empty() && ports_borrowed_ == 0),
                "hier.quiescent_agrees", [&] {
                  return "quiescent() disagrees with queue depth " +
                         std::to_string(pq_.size()) + " / borrowed ports " +
                         std::to_string(ports_borrowed_);
                });
    ctx.require(rejected_.size() <= rejected_fifo_.size() &&
                    rejected_fifo_.size() <= cfg_.filter_recovery_entries,
                "hier.recovery_bounded", [&] {
                  return std::to_string(rejected_.size()) + " tracked / " +
                         std::to_string(rejected_fifo_.size()) +
                         " FIFO entries, capacity " +
                         std::to_string(cfg_.filter_recovery_entries);
                });
    // Conservation: every prefetch the classifier saw issued is either
    // classified good/bad (eviction, promotion, or drain) or still
    // resident with its PIB — nothing disappears, nothing is counted
    // twice. The baseline carries prefetches issued before the
    // measurement window whose lines are still resident.
    const std::uint64_t issued =
        classifier_.issued().total() + baseline_unclassified_;
    const std::uint64_t accounted = classifier_.good().total() +
                                    classifier_.bad().total() +
                                    unclassified_pib();
    ctx.require(issued == accounted, "hier.classifier_conservation", [&] {
      return "issued " + std::to_string(classifier_.issued().total()) +
             " + baseline " + std::to_string(baseline_unclassified_) +
             " != good " + std::to_string(classifier_.good().total()) +
             " + bad " + std::to_string(classifier_.bad().total()) +
             " + resident " + std::to_string(unclassified_pib());
    });
  });
}

void MemoryHierarchy::begin_cycle(Cycle) {
  // Ports spent on prefetch issue in the previous cycle are still busy
  // when this cycle's demand accesses arrive — this is the port
  // competition between the prefetch queue and normal references.
  const std::uint32_t borrowed =
      ports_borrowed_ > cfg_.l1d.ports ? cfg_.l1d.ports : ports_borrowed_;
  ports_left_ = cfg_.l1d.ports - borrowed;
  ports_borrowed_ = 0;
}

bool MemoryHierarchy::try_reserve_port(Cycle) {
  if (ports_left_ == 0) return false;
  --ports_left_;
  return true;
}

bool MemoryHierarchy::line_resident(LineAddr line) const {
  if (l1d_.contains(l1d_.base_of(line))) return true;
  if (buffer_ && buffer_->contains(line)) return true;
  return false;
}

void MemoryHierarchy::settle_prefetch(Cycle now, const mem::Eviction& ev,
                                      bool train) {
  if (!ev.pib) return;
  classifier_.record_outcome(ev.source, ev.rib);
  PPF_OBS_EVENT(obs_,
                ev.rib ? obs::EventKind::EvictReferenced
                       : obs::EventKind::EvictDead,
                now, ev.line, ev.trigger_pc, ev.source);
  if (train) {
    active_filter_->feedback(
        filter::FilterFeedback{ev.line, ev.trigger_pc, ev.rib, ev.source});
  }
}

void MemoryHierarchy::note_first_use(Cycle now, LineAddr line, Pc pc,
                                     PrefetchSource source) {
  PPF_OBS_EVENT(obs_, obs::EventKind::FirstUse, now, line, pc, source);
  prefetcher_.on_prefetch_used(line, source);
  if (cfg_.enable_taxonomy) taxonomy_.on_prefetch_used(line);
}

void MemoryHierarchy::post_writeback(const mem::Eviction& ev,
                                     std::uint32_t line_bytes) {
  if (!ev.dirty) return;
  // Posted writeback: consumes bus bandwidth, does not stall anyone.
  bus_.transfer(bus_.next_free(), line_bytes, /*is_prefetch=*/false);
  dram_.writeback();
}

void MemoryHierarchy::handle_eviction(Cycle now, const mem::Eviction& ev) {
  if (ev.pib && cfg_.enable_taxonomy) taxonomy_.on_prefetch_evicted(ev.line);
  settle_prefetch(now, ev, /*train=*/true);
  if (victim_) {
    // The PIB/RIB verdict above is final; the victim cache just gives the
    // data a second chance, so a recalled line returns as demand data.
    // Dirty data is written back eagerly so a silent LRU drop from the
    // victim cache can never lose it (the recall path restores dirty).
    victim_->insert(ev);
  }
  post_writeback(ev, cfg_.l1d.line_bytes);
}

Cycle MemoryHierarchy::fetch_from_l2(Cycle now, Pc pc, Addr addr,
                                     bool is_prefetch, bool fill_l1,
                                     const mem::FillInfo& info,
                                     AccessType type) {
  // Single L2 port: back-to-back requests serialise.
  const Cycle start = now > l2_next_free_ ? now : l2_next_free_;
  l2_next_free_ = start + 1;

  const mem::AccessResult r2 = l2_.access(addr, type);
  if (!is_prefetch && type != AccessType::InstFetch) {
    prefetcher_.on_l2_demand(pc, addr, r2.hit, scratch_cands_);
  }

  Cycle ready;
  if (r2.hit) {
    ready = start + cfg_.l2.latency;
  } else {
    // Miss known after the lookup; a free MSHR is needed to go further.
    const Cycle req = mshr_.earliest_issue(start + cfg_.l2.latency);
    const Cycle mem_ready = dram_.read(req, is_prefetch);
    ready = bus_.transfer(mem_ready, cfg_.l2.line_bytes, is_prefetch);
    mshr_.occupy(ready);
    // Allocate in L2 (inclusive hierarchy). PIB/RIB normally live in the
    // L1; in prefetch-to-L2 mode the L2 line carries them instead.
    const mem::FillInfo l2_info =
        (is_prefetch && cfg_.prefetch_to_l2) ? info : mem::FillInfo{};
    if (auto ev2 = l2_.fill(addr, l2_info)) {
      settle_prefetch(now, *ev2, /*train=*/true);
      post_writeback(*ev2, cfg_.l2.line_bytes);
    }
    if (l2_info.is_prefetch) {
      // L2-target mode: this L2 allocation is the prefetch's fill.
      PPF_OBS_EVENT(obs_, obs::EventKind::Fill, now, l1d_.line_of(addr), pc,
                    info.source);
    }
  }

  if (fill_l1) {
    const auto ev = l1d_.fill(addr, info);
    if (ev.has_value()) handle_eviction(now, *ev);
    if (is_prefetch && cfg_.enable_taxonomy) {
      // The victim counts as "live" if it was demand data or a
      // referenced prefetch; displacing dead speculation is free.
      const bool victim_live =
          ev.has_value() && (!ev->pib || ev->rib);
      taxonomy_.on_prefetch_fill(
          l1d_.line_of(addr),
          ev.has_value() ? std::optional<LineAddr>(ev->line) : std::nullopt,
          victim_live);
    }
    const double interval =
        static_cast<double>(now > last_l1_fill_cycle_
                                ? now - last_l1_fill_cycle_
                                : 0);
    ema_fill_interval_ += 0.002 * (interval - ema_fill_interval_);
    last_l1_fill_cycle_ = now;
    in_flight_.note_fill(now, l1d_.line_of(addr), ready);
    if (is_prefetch) {
      ++prefetch_l1_fills_;
      PPF_OBS_EVENT(obs_, obs::EventKind::Fill, now, l1d_.line_of(addr),
                    info.trigger_pc, info.source);
      prefetcher_.on_prefetch_fill(l1d_.line_of(addr), info.source);
    }
  }
  return ready;
}

Cycle MemoryHierarchy::demand_access(Cycle now, Pc pc, Addr addr,
                                     bool is_store) {
  ++demand_accesses_;
  scratch_cands_.clear();
  const AccessType type = is_store ? AccessType::Store : AccessType::Load;
  const mem::AccessResult r = l1d_.access(addr, type);
  prefetcher_.on_l1_demand(pc, addr, r, scratch_cands_);

  Cycle result;
  if (r.hit) {
    if (r.first_use_of_prefetch) {
      note_first_use(now, l1d_.line_of(addr), pc, r.source);
    }
    // A line still in flight (e.g. prefetched but not yet arrived) delays
    // the "hit" until the data is actually there.
    const Cycle data_at = inflight_ready(now, l1d_.line_of(addr));
    result = (data_at > now ? data_at : now) + cfg_.l1d.latency;
  } else {
    const LineAddr line = l1d_.line_of(addr);
    // A demand miss supersedes any queued prefetch of the same line.
    pq_.squash_line(line);
    check_recovery(now, line);
    if (cfg_.enable_taxonomy) taxonomy_.on_demand_miss(line);

    // Victim-cache probe: a recent conflict eviction comes straight back.
    if (const auto vc = victim_ ? victim_->take(line) : std::nullopt) {
      mem::FillInfo back;
      back.dirty = vc->dirty || is_store;
      if (auto ev = l1d_.fill(addr, back)) handle_eviction(now, *ev);
      result = now + cfg_.l1d.latency + 1;
    } else if (auto pb = buffer_ ? buffer_->take(line) : std::nullopt) {
      // Prefetch-buffer hit: the prefetch proved good (whatever the stored
      // record's RIB says); promote into L1 as a demand-resident line.
      note_first_use(now, line, pc, pb->source);
      pb->rib = true;
      settle_prefetch(now, *pb, /*train=*/true);
      if (auto ev = l1d_.fill(addr, mem::FillInfo{})) handle_eviction(now, *ev);
      result = now + cfg_.l1d.latency;
    } else {
      const Cycle l1_probe_done = now + cfg_.l1d.latency;
      // Write-allocate: a store miss leaves the freshly filled line dirty.
      mem::FillInfo demand_info;
      demand_info.dirty = is_store;
      result = fetch_from_l2(l1_probe_done, pc, addr, /*is_prefetch=*/false,
                             /*fill_l1=*/true, demand_info, type);
    }
  }

  if (!is_store) load_latency_.record(result - now);
  route_candidates(now, scratch_cands_);
  return result;
}

void MemoryHierarchy::software_prefetch(Cycle now, Pc pc, Addr addr) {
  if (!cfg_.enable_sw_prefetch) return;
  const prefetch::PrefetchRequest req{l1d_.line_of(addr), pc,
                                      PrefetchSource::Software};
  route_candidates(now, {&req, 1});
}

Cycle MemoryHierarchy::estimated_residence() const {
  const double cycles =
      ema_fill_interval_ * static_cast<double>(cfg_.l1d.num_lines());
  return static_cast<Cycle>(cycles);
}

void MemoryHierarchy::note_rejected(Cycle now,
                                    const filter::PrefetchCandidate& c) {
  if (cfg_.filter_recovery_entries == 0) return;
  if (RejectedEntry* e = rejected_.find(c.line)) {
    *e = RejectedEntry{c.trigger_pc, c.source, now};
    return;  // already tracked; keep its FIFO position
  }
  rejected_.insert_if_absent(c.line, RejectedEntry{c.trigger_pc, c.source, now});
  rejected_fifo_.push_back(c.line);
  while (rejected_fifo_.size() > cfg_.filter_recovery_entries) {
    rejected_.erase(rejected_fifo_.front());
    rejected_fifo_.pop_front();
  }
}

void MemoryHierarchy::check_recovery(Cycle now, LineAddr line) {
  if (cfg_.filter_recovery_entries == 0) return;
  const RejectedEntry* e = rejected_.find(line);
  if (e == nullptr) return;
  const bool within_residence =
      now - e->reject_cycle <= estimated_residence();
  if (within_residence) {
    // The program demanded a line the filter refused to prefetch, soon
    // enough that the prefetched line would still have been resident:
    // train the table back toward "good" so the stream resumes.
    active_filter_->recover(filter::FilterFeedback{
        line, e->trigger_pc, true, e->source});
    ++recovered_;
    PPF_OBS_EVENT(obs_, obs::EventKind::Recovered, now, line,
                  e->trigger_pc, e->source);
  }
  rejected_.erase(line);
}

void MemoryHierarchy::route_candidates(
    Cycle now, std::span<const prefetch::PrefetchRequest> cands) {
  for (const prefetch::PrefetchRequest& c : cands) {
    // Duplicate squash: line already resident or being fetched (no cost).
    if (line_resident(c.line) || line_in_flight(now, c.line)) {
      classifier_.record_squashed();
      PPF_OBS_EVENT(obs_, obs::EventKind::Squashed, now, c.line, c.trigger_pc,
                    c.source);
      continue;
    }
    const filter::PrefetchCandidate fc{c.line, c.trigger_pc, c.source};
    if (!active_filter_->admit(fc)) {
      classifier_.record_filtered(c.source);
      PPF_OBS_EVENT(obs_, obs::EventKind::Filtered, now, c.line, c.trigger_pc,
                    c.source);
      note_rejected(now, fc);
      continue;
    }
    pq_.push(mem::PrefetchQueueEntry{c.line, c.trigger_pc, c.source, now});
  }
}

void MemoryHierarchy::end_cycle(Cycle now) {
  while (ports_left_ > 0 && !pq_.empty()) {
    --ports_left_;
    ++ports_borrowed_;
    const auto e = pq_.pop(now);
    PPF_ASSERT(e.has_value());
    // The L1 probe happens at issue; a resident/in-flight line squashes
    // the prefetch (the port was still consumed by the probe). In
    // L2-target mode an L2-resident line is equally redundant.
    if (line_resident(e->line) || line_in_flight(now, e->line) ||
        (cfg_.prefetch_to_l2 && l2_.contains(l1d_.base_of(e->line)))) {
      classifier_.record_squashed();
      PPF_OBS_EVENT(obs_, obs::EventKind::Squashed, now, e->line,
                    e->trigger_pc, e->source);
      continue;
    }
    const Addr addr = l1d_.base_of(e->line);
    classifier_.record_issued(e->source);
    PPF_OBS_EVENT(obs_, obs::EventKind::Issued, now, e->line, e->trigger_pc,
                  e->source);
    const mem::FillInfo info{/*is_prefetch=*/true, e->trigger_pc, e->source};
    if (cfg_.prefetch_to_l2) {
      // Structural pollution avoidance: stage the data in the L2 only.
      fetch_from_l2(now, e->trigger_pc, addr, /*is_prefetch=*/true,
                    /*fill_l1=*/false, info, AccessType::Prefetch);
    } else if (buffer_) {
      // Dedicated-buffer mode: fetch the data but fill the buffer. The
      // record is a prefetch not yet referenced, so the one it displaces
      // is a prefetch never referenced: a bad one. It was never in the
      // L1, so it takes no victim-cache slot.
      fetch_from_l2(now, e->trigger_pc, addr, /*is_prefetch=*/true,
                    /*fill_l1=*/false, info, AccessType::Prefetch);
      PPF_OBS_EVENT(obs_, obs::EventKind::Fill, now, e->line, e->trigger_pc,
                    e->source);
      const mem::Eviction rec{e->line, /*dirty=*/false, /*pib=*/true,
                              /*rib=*/false, e->trigger_pc, e->source};
      if (auto ev = buffer_->insert(rec)) {
        settle_prefetch(now, *ev, /*train=*/true);
      }
    } else {
      fetch_from_l2(now, e->trigger_pc, addr, /*is_prefetch=*/true,
                    /*fill_l1=*/true, info, AccessType::Prefetch);
    }
  }
  if (obs_ != nullptr) obs_->tick(now);
  // End-of-cycle is the one point where every component's state is
  // settled, so the paranoid cadence sweeps here.
  if (chk_ != nullptr) chk_->tick(now);
}

Cycle MemoryHierarchy::fetch(Cycle now, Pc pc) {
  const mem::AccessResult r = l1i_.access(pc, AccessType::InstFetch);
  if (r.hit) return now;  // single-cycle fetch folded into the pipeline
  const Cycle ready =
      fetch_from_l2(now + cfg_.l1i.latency, pc, pc, /*is_prefetch=*/false,
                    /*fill_l1=*/false, mem::FillInfo{}, AccessType::InstFetch);
  // An instruction line carries no PIB and is never dirty, so its victim
  // needs no verdict and no writeback. No data miss can recall it, so it
  // takes no victim-cache slot either.
  (void)l1i_.fill(pc, mem::FillInfo{});
  return ready;
}

void MemoryHierarchy::reset_stats() {
  l1d_.reset_stats();
  l1i_.reset_stats();
  l2_.reset_stats();
  bus_.reset_stats();
  dram_.reset_stats();
  pq_.reset_stats();
  if (buffer_) buffer_->reset_stats();
  classifier_.reset();
  taxonomy_.reset();
  mshr_.reset_stats();
  if (victim_) victim_->reset_stats();
  load_latency_.reset();
  active_filter_->reset_stats();
  demand_accesses_ = 0;
  prefetch_l1_fills_ = 0;
  if (obs_ != nullptr) obs_->on_stats_reset();
  // Conservation baseline: counters are now zero, but warm prefetched
  // lines stay resident and will be classified inside the window.
  if (chk_ != nullptr) baseline_unclassified_ = unclassified_pib();
}

void MemoryHierarchy::finalize() {
  PPF_CHECK_MSG(!finalized_, "finalize() called twice");
  finalized_ = true;
  // Final sweep (modes final and paranoid) before the drains below strip
  // the resident-PIB state the conservation law accounts for.
  if (chk_ != nullptr) chk_->sweep(chk_->last_cycle());
  // Drain events carry the last simulated cycle (deterministic; there is
  // no "after the end" cycle to attribute them to).
  const Cycle end = obs_ != nullptr ? obs_->last_cycle() : 0;
  // The drains train no filter: the program never judged a line still
  // resident, and the static filter's profile phase ends in a drain.
  for (const mem::Eviction& ev : l1d_.drain()) {
    settle_prefetch(end, ev, /*train=*/false);
  }
  // The taxonomy classifies every L1D prefetch it still tracks.
  if (cfg_.enable_taxonomy) taxonomy_.finalize();
  if (buffer_) {
    for (const mem::Eviction& ev : buffer_->drain()) {
      settle_prefetch(end, ev, /*train=*/false);
    }
  }
  if (cfg_.prefetch_to_l2) {
    for (const mem::Eviction& ev : l2_.drain()) {
      settle_prefetch(end, ev, /*train=*/false);
    }
  }
}

}  // namespace ppf::sim
