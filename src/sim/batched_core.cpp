// ppf:hot
#include "sim/batched_core.hpp"

#include <chrono>
#include <limits>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "sim/sim_config.hpp"

namespace ppf::sim {
namespace {

constexpr Cycle kNotDone = std::numeric_limits<Cycle>::max();

unsigned shift_of(unsigned bytes) {
  unsigned s = 0;
  for (unsigned v = bytes; v > 1; v >>= 1) ++s;
  return s;
}

using TimePoint = std::chrono::steady_clock::time_point;

double ns_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

BatchedCore::BatchedCore(core::CoreConfig cfg, MemoryHierarchy& mem)
    : cfg_(cfg),
      mem_(mem),
      bp_(cfg.bimodal),
      btb_(cfg.btb),
      rng_(cfg.seed),
      line_shift_(shift_of(cfg.ifetch_line_bytes)) {
  PPF_CHECK(cfg_.width >= 1);
  PPF_CHECK(cfg_.rob_entries >= cfg_.width);
  PPF_CHECK(cfg_.lsq_entries >= 1);
  // Same ring sizing as the reference engine: round up to a power of two
  // so the index is a mask; capacity checks still use cfg_.rob_entries.
  std::uint64_t ring = 1;
  while (ring < cfg_.rob_entries) ring <<= 1;
  rob_mask_ = ring - 1;
  rob_.resize(ring);
  // Pending occupancy is bounded by live ROB entries, so the ROB ring
  // size (already power-of-two) can never overflow these.
  pending_mem_.slots.resize(ring);
  pending_mem_.mask = ring - 1;
  pending_serial_.slots.resize(ring);
  pending_serial_.mask = ring - 1;
}

BatchedCore::BatchedCore(const BatchedCore& other, MemoryHierarchy& mem,
                         workload::TraceSource& trace)
    : cfg_(other.cfg_),
      mem_(mem),
      bp_(other.bp_),
      btb_(other.btb_),
      rng_(other.rng_),
      line_shift_(other.line_shift_),
      rob_mask_(other.rob_mask_) {
  copy_run_state(other);
  trace_ = &trace;
  if (arena_mode_) {
    cursor_ = dynamic_cast<workload::TraceCursor*>(&trace);
    PPF_CHECK_MSG(cursor_ != nullptr,
                  "arena-bound batched clone requires a TraceCursor");
    // The cursor may read a longer arena than other's (a snapshot resumed
    // after its arena was regrown); decode runs to the new arena's end.
    arena_ = cursor_->arena();
    view_ = arena_->view();
    win_end_ = arena_->size();
    PPF_CHECK_MSG(cursor_->pos() == idx_ && idx_ <= win_end_,
                  "clone cursor mispositioned");
  } else {
    // Stream mode: the staging window was copied by copy_run_state; the
    // pointers must target *our* copy, not other's.
    cursor_ = nullptr;
    arena_.reset();
    view_ = workload::MaterializedTrace::SoaView{
        spc_.data(), skind_.data(), saddr_.data(), starget_.data(),
        sflags_.data()};
  }
}

void BatchedCore::copy_run_state(const BatchedCore& o) {
  rob_ = o.rob_;
  rob_head_seq_ = o.rob_head_seq_;
  rob_next_seq_ = o.rob_next_seq_;
  rob_count_ = o.rob_count_;
  lsq_count_ = o.lsq_count_;
  pending_mem_ = o.pending_mem_;
  pending_serial_ = o.pending_serial_;
  serial_chain_ready_ = o.serial_chain_ready_;
  last_load_done_ = o.last_load_done_;
  last_load_known_ = o.last_load_known_;
  arena_ = o.arena_;
  idx_ = o.idx_;
  win_end_ = o.win_end_;
  arena_mode_ = o.arena_mode_;
  stream_eof_ = o.stream_eof_;
  spc_ = o.spc_;
  skind_ = o.skind_;
  saddr_ = o.saddr_;
  starget_ = o.starget_;
  sflags_ = o.sflags_;
  dispatched_ = o.dispatched_;
  pause_at_ = o.pause_at_;
  res_ = o.res_;
  window_snapshot_ = o.window_snapshot_;
  window_start_ = o.window_start_;
  now_ = o.now_;
  cycle_limit_ = o.cycle_limit_;
  fetch_ready_ = o.fetch_ready_;
  redirect_until_ = o.redirect_until_;
  cur_fetch_line_ = o.cur_fetch_line_;
  timing_tick_ = o.timing_tick_;
  mid_cycle_ = o.mid_cycle_;
  cycle_trace_active_ = o.cycle_trace_active_;
  was_rob_full_ = o.was_rob_full_;
  fetch_stalled_ = o.fetch_stalled_;
  lsq_blocked_ = o.lsq_blocked_;
  slots_ = o.slots_;
}

std::unique_ptr<core::CoreEngine> BatchedCore::clone_rebound(
    core::DataMemory& dmem, core::InstMemory& imem,
    workload::TraceSource& trace) const {
  // The batched engine only drives a concrete MemoryHierarchy (that is
  // the whole point); nullptr sends the caller down the cold path.
  auto* hier = dynamic_cast<MemoryHierarchy*>(&dmem);
  if (hier == nullptr || hier != dynamic_cast<MemoryHierarchy*>(&imem)) {
    return nullptr;
  }
  return std::unique_ptr<core::CoreEngine>(new BatchedCore(*this, *hier, trace));
}

std::uint64_t BatchedCore::alloc_rob(bool is_mem) {
  PPF_ASSERT(!rob_full());
  const std::uint64_t seq = rob_next_seq_++;
  rob_at(seq) = RobEntry{kNotDone, is_mem, true};
  ++rob_count_;
  if (is_mem) ++lsq_count_;
  return seq;
}

void BatchedCore::retire(Cycle now) {
  unsigned n = 0;
  while (rob_count_ > 0 && n < cfg_.width) {
    RobEntry& head = rob_at(rob_head_seq_);
    if (!head.issued || head.done > now) break;
    if (head.is_mem) {
      PPF_ASSERT(lsq_count_ > 0);
      --lsq_count_;
    }
    ++rob_head_seq_;
    --rob_count_;
    ++n;
  }
  res_.stages.retire_records += n;
}

void BatchedCore::do_issue(Cycle now, const PendingMem& p, bool serial) {
  ++res_.stages.probe_records;
  const Cycle completion = mem_.demand_access(now, p.pc, p.addr, p.is_store);
  RobEntry& e = rob_at(p.seq);
  e.issued = true;
  e.done = p.is_store ? now + 1 : completion;
  if (!p.is_store) {
    last_load_done_ = e.done;
    last_load_known_ = true;
    if (serial) serial_chain_ready_ = completion;
  }
}

void BatchedCore::issue_pending(Cycle now) {
  // Serial (pointer-chase) accesses go first: the chain head has been
  // waiting longest and everything behind it is address-dependent.
  while (!pending_serial_.empty() && serial_chain_ready_ <= now &&
         mem_.try_reserve_port(now)) {
    const PendingMem p = pending_serial_.front();
    pending_serial_.pop();
    do_issue(now, p, /*serial=*/true);
  }
  while (!pending_mem_.empty() && mem_.try_reserve_port(now)) {
    const PendingMem p = pending_mem_.front();
    pending_mem_.pop();
    do_issue(now, p, /*serial=*/false);
  }
}

// ppf:cold — stream-mode refill goes through the virtual TraceSource;
// it runs once per kFetchBatch records, never per instruction.
void BatchedCore::refill_stream() {
  std::array<workload::TraceRecord, core::kFetchBatch> buf;
  const std::size_t got =
      stream_eof_ ? 0 : trace_->next_batch(buf.data(), core::kFetchBatch);
  for (std::size_t i = 0; i < got; ++i) {
    const workload::TraceRecord& r = buf[i];
    spc_[i] = r.pc;
    skind_[i] = static_cast<std::uint8_t>(r.kind);
    saddr_[i] = r.addr;
    starget_[i] = r.target;
    sflags_[i] =
        static_cast<std::uint8_t>((r.taken ? 1u : 0u) | (r.serial ? 2u : 0u));
  }
  idx_ = 0;
  win_end_ = got;
  if (got < core::kFetchBatch) stream_eof_ = true;
}
// ppf:hot

void BatchedCore::advance() {
  ++idx_;
  if (!arena_mode_ && idx_ >= win_end_ && !stream_eof_) refill_stream();
}

void BatchedCore::sync_cursor() {
  if (cursor_ != nullptr) cursor_->seek(idx_);
}

void BatchedCore::bind(workload::TraceSource& trace) {
  trace_ = &trace;
  cursor_ = dynamic_cast<workload::TraceCursor*>(&trace);
  arena_mode_ = cursor_ != nullptr;
  if (arena_mode_) {
    // Decode straight off the shared arena: idx_ is the absolute record
    // index; the cursor is only touched again at pause/finish sync.
    arena_ = cursor_->arena();
    view_ = arena_->view();
    idx_ = cursor_->pos();
    win_end_ = arena_->size();
    stream_eof_ = true;  // unused in arena mode
  } else {
    arena_.reset();
    stream_eof_ = false;
    view_ = workload::MaterializedTrace::SoaView{
        spc_.data(), skind_.data(), saddr_.data(), starget_.data(),
        sflags_.data()};
    refill_stream();
  }
  dispatched_ = 0;
  pause_at_ = 0;
  res_ = core::CoreResult{};
  window_snapshot_ = core::CoreResult{};
  window_start_ = 0;
  now_ = 0;
  cycle_limit_ = 0;
  fetch_ready_ = 0;
  redirect_until_ = 0;
  cur_fetch_line_ = std::numeric_limits<Addr>::max();
  timing_tick_ = 0;
  mid_cycle_ = false;
}

void BatchedCore::begin_window() {
  window_snapshot_ = res_;
  window_start_ = now_;
}

void BatchedCore::fast_forward_stall() {
  // Mirrors OooCore::fast_forward_stall exactly — see the commentary
  // there. Provably-idle cycles jump straight to the next event with
  // bulk stall attribution; result-identical to stepping.
  if (!mem_.quiescent() || !pending_mem_.empty()) return;
  if (!pending_serial_.empty() && serial_chain_ready_ <= now_) return;
  const bool head_issued = rob_count_ > 0 && rob_at(rob_head_seq_).issued;
  if (head_issued && rob_at(rob_head_seq_).done <= now_) return;

  const bool fetch_blocked = now_ < fetch_ready_ || now_ < redirect_until_;
  bool lsq_blocking = false;
  if (cycle_trace_active_ && !fetch_blocked && !rob_full()) {
    const auto kind = static_cast<workload::InstKind>(view_.kind[idx_]);
    const bool is_mem =
        kind == workload::InstKind::Load || kind == workload::InstKind::Store;
    if (!is_mem || lsq_count_ < cfg_.lsq_entries) return;
    if ((view_.pc[idx_] >> line_shift_) != cur_fetch_line_) return;
    lsq_blocking = true;
  }

  Cycle t = kNotDone;
  if (head_issued) t = rob_at(rob_head_seq_).done;
  if (!pending_serial_.empty() && serial_chain_ready_ < t) {
    t = serial_chain_ready_;
  }
  if (fetch_blocked) {
    const Cycle unblock =
        fetch_ready_ > redirect_until_ ? fetch_ready_ : redirect_until_;
    if (unblock < t) t = unblock;
  }
  if (t == kNotDone || t <= now_) return;
  if (t > cycle_limit_) t = cycle_limit_;

  const Cycle skipped = t - now_;
  if (cycle_trace_active_) {
    if (rob_full())
      res_.rob_full_stall_cycles += skipped;
    else if (lsq_blocking)
      res_.lsq_full_stall_cycles += skipped;
    else if (fetch_blocked)
      res_.fetch_stall_cycles += skipped;
  }
  now_ = t;
}

bool BatchedCore::cycle(std::uint64_t limit) {
  heartbeat_tick(dispatched_);
  // Stage timing is sampled 1-in-kTimingSample cycles and scaled up;
  // resumed (mid-cycle) entries are never timed. Timing never touches
  // simulated state, so the ns estimates cannot perturb determinism.
  bool timed = false;
  TimePoint t0{};
  if (!mid_cycle_) {
    cycle_trace_active_ = have_rec() && dispatched_ < limit;
    if (!cycle_trace_active_ && rob_count_ == 0 && pending_mem_.empty() &&
        pending_serial_.empty())
      return false;
    PPF_CHECK_MSG(now_ < cycle_limit_, "timing model livelock");
    fast_forward_stall();

    timed = (timing_tick_++ & (kTimingSample - 1)) == 0;
    if (timed) t0 = std::chrono::steady_clock::now();
    mem_.begin_cycle(now_);
    retire(now_);
    if (timed) {
      const TimePoint t1 = std::chrono::steady_clock::now();
      res_.stages.retire_ns += ns_between(t0, t1) * kTimingSample;
      t0 = t1;
    }
    issue_pending(now_);
    if (timed) {
      const TimePoint t1 = std::chrono::steady_clock::now();
      res_.stages.probe_ns += ns_between(t0, t1) * kTimingSample;
      t0 = t1;
    }

    was_rob_full_ = rob_full();
    fetch_stalled_ = now_ < fetch_ready_ || now_ < redirect_until_;
    slots_ = cfg_.width;
    lsq_blocked_ = false;
  } else {
    mid_cycle_ = false;
  }

  while (slots_ > 0 && idx_ < win_end_ && dispatched_ < limit) {
    if (now_ < fetch_ready_ || now_ < redirect_until_) break;
    if (rob_full()) break;
    const Pc pc = view_.pc[idx_];

    // Instruction fetch: crossing into a new I-line probes the L1I.
    const Addr line = pc >> line_shift_;
    if (line != cur_fetch_line_) {
      const Cycle ready = mem_.fetch(now_, pc);
      cur_fetch_line_ = line;
      if (ready > now_) {
        fetch_ready_ = ready;
        break;
      }
    }

    const auto kind = static_cast<workload::InstKind>(view_.kind[idx_]);
    const bool is_mem =
        kind == workload::InstKind::Load || kind == workload::InstKind::Store;
    if (is_mem && lsq_count_ >= cfg_.lsq_entries) {
      lsq_blocked_ = true;
      break;
    }

    const std::uint64_t seq = alloc_rob(is_mem);
    RobEntry& e = rob_at(seq);
    Cycle done = now_ + cfg_.exec_latency;
    // Statistical dataflow: consume the youngest load with prob p.
    if (lsq_count_ > (is_mem ? 1U : 0U) &&
        rng_.chance(cfg_.dep_on_load_prob)) {
      if (last_load_known_ && last_load_done_ > done) done = last_load_done_;
    }

    switch (kind) {
      case workload::InstKind::Op:
        e.done = done;
        break;
      case workload::InstKind::SwPrefetch:
        ++res_.sw_prefetches;
        mem_.software_prefetch(now_, pc, view_.addr[idx_]);
        e.done = done;
        break;
      case workload::InstKind::Branch: {
        ++res_.branches;
        const bool taken = (view_.flags[idx_] & 1u) != 0;
        const Addr target = view_.target[idx_];
        const bool pred_taken = bp_.predict(pc);
        const auto pred_target = btb_.lookup(pc);
        bool correct = pred_taken == taken;
        if (correct && taken) {
          correct = pred_target.has_value() && *pred_target == target;
        }
        bp_.update(pc, taken);
        if (taken) btb_.update(pc, target);
        bp_.note_outcome(correct);
        e.done = done;
        if (!correct) {
          ++res_.mispredictions;
          redirect_until_ = done + cfg_.mispredict_penalty;
        }
        if (taken) {
          // Control transfer: the next line fetched is the target's.
          cur_fetch_line_ = std::numeric_limits<Addr>::max();
        }
        break;
      }
      case workload::InstKind::Load:
      case workload::InstKind::Store: {
        const bool is_store = kind == workload::InstKind::Store;
        if (is_store)
          ++res_.stores;
        else
          ++res_.loads;
        const PendingMem pm{seq, pc, view_.addr[idx_], is_store};
        if ((view_.flags[idx_] & 2u) != 0) {
          // Pointer chase: issue in chain order, gated on the previous
          // serial load's data.
          if (pending_serial_.empty() && serial_chain_ready_ <= now_ &&
              mem_.try_reserve_port(now_)) {
            do_issue(now_, pm, /*serial=*/true);
          } else {
            e.issued = false;
            e.done = kNotDone;
            pending_serial_.push(pm);
            if (!is_store) last_load_known_ = false;
          }
        } else if (mem_.try_reserve_port(now_)) {
          do_issue(now_, pm, /*serial=*/false);
        } else {
          e.issued = false;
          e.done = kNotDone;
          pending_mem_.push(pm);
          if (!is_store) last_load_known_ = false;
        }
        break;
      }
    }

    ++dispatched_;
    ++res_.instructions;
    ++res_.stages.fetch_records;
    --slots_;
    advance();
    if (dispatched_ == pause_at_) {
      // Pause exactly at the boundary, before finishing the cycle; the
      // resumed (or cloned) core re-enters here with mid_cycle_ set.
      mid_cycle_ = true;
      return true;
    }
    if (now_ < redirect_until_) break;  // stop after a mispredicted branch
  }
  if (timed) {
    const TimePoint t1 = std::chrono::steady_clock::now();
    res_.stages.fetch_ns += ns_between(t0, t1) * kTimingSample;
    t0 = t1;
  }

  if (cycle_trace_active_ && slots_ == cfg_.width) {
    // Nothing dispatched this cycle: attribute the stall.
    if (was_rob_full_)
      ++res_.rob_full_stall_cycles;
    else if (lsq_blocked_)
      ++res_.lsq_full_stall_cycles;
    else if (fetch_stalled_)
      ++res_.fetch_stall_cycles;
  }

  ++res_.stages.memsys_records;
  mem_.end_cycle(now_);
  if (timed) {
    res_.stages.memsys_ns +=
        ns_between(t0, std::chrono::steady_clock::now()) * kTimingSample;
  }
  ++now_;
  return true;
}

void BatchedCore::run_until_dispatched(std::uint64_t target) {
  PPF_CHECK(trace_ != nullptr);
  if (dispatched_ >= target) return;
  // Livelock guard: the model must always make forward progress.
  cycle_limit_ = now_ + (target - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = target;
  while (!mid_cycle_ && cycle(target)) {
  }
  pause_at_ = 0;
  // Publish the pause position: snapshot/clone machinery reads the
  // cursor (arena mode consumes records without advancing it).
  sync_cursor();
}

core::CoreResult BatchedCore::finish(std::uint64_t dispatch_limit) {
  PPF_CHECK(trace_ != nullptr);
  PPF_CHECK(dispatch_limit >= dispatched_);
  cycle_limit_ =
      now_ + (dispatch_limit - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = 0;
  while (cycle(dispatch_limit)) {
  }
  sync_cursor();
  core::CoreResult out = res_;
  core::subtract_window(out, window_snapshot_);
  out.cycles = now_ - window_start_;
  return out;
}

void BatchedCore::register_obs(obs::MetricRegistry& reg) const {
  register_core_counters(reg, res_);
}

void BatchedCore::register_checks(check::CheckRegistry& reg) const {
  // Same structural invariants (and invariant IDs) as the reference
  // engine — docs/CHECKING.md documents them once for both.
  reg.add("core", [this](check::CheckContext& ctx) {
    const bool ring_ok = rob_next_seq_ - rob_head_seq_ == rob_count_ &&
                         rob_count_ <= cfg_.rob_entries &&
                         rob_.size() == rob_mask_ + 1 && is_pow2(rob_.size());
    ctx.require(ring_ok, "core.rob_ring", [&] {
      return "head=" + std::to_string(rob_head_seq_) + " next=" +
             std::to_string(rob_next_seq_) + " count=" +
             std::to_string(rob_count_) + " capacity=" +
             std::to_string(cfg_.rob_entries) + " storage=" +
             std::to_string(rob_.size());
    });
    ctx.require(lsq_count_ <= cfg_.lsq_entries && lsq_count_ <= rob_count_,
                "core.lsq_bound", [&] {
                  return "lsq=" + std::to_string(lsq_count_) + " capacity=" +
                         std::to_string(cfg_.lsq_entries) + " rob=" +
                         std::to_string(rob_count_);
                });
    // Every pending op occupies a not-yet-issued ROB entry, and both
    // rings hold entries in strict age (allocation seq) order.
    const auto ordered = [&](const PendingRing& q) {
      std::uint64_t prev = 0;
      bool first = true;
      for (std::uint64_t i = q.head; i != q.tail; ++i) {
        const PendingMem& p = q.slots[i & q.mask];
        if (!first && p.seq <= prev) return false;
        if (p.seq < rob_head_seq_ || p.seq >= rob_next_seq_) return false;
        prev = p.seq;
        first = false;
      }
      return true;
    };
    ctx.require(ordered(pending_mem_) && ordered(pending_serial_) &&
                    pending_mem_.size() + pending_serial_.size() <= rob_count_,
                "core.lsq_age_order", [&] {
                  return "pending_mem=" + std::to_string(pending_mem_.size()) +
                         " pending_serial=" +
                         std::to_string(pending_serial_.size()) + " rob=" +
                         std::to_string(rob_count_);
                });
    const bool window_ok =
        arena_mode_ ? (arena_ != nullptr && win_end_ == arena_->size() &&
                       idx_ <= win_end_)
                    : (idx_ <= win_end_ && win_end_ <= core::kFetchBatch);
    ctx.require(window_ok, "core.fetch_buffer", [&] {
      return "idx=" + std::to_string(idx_) + " end=" +
             std::to_string(win_end_) + " arena=" +
             (arena_mode_ ? std::to_string(arena_->size()) : "stream");
    });
  });
}

std::unique_ptr<core::CoreEngine> make_sim_engine(const SimConfig& cfg,
                                                  MemoryHierarchy& mem) {
  if (cfg.core_model == CoreModel::Dataflow) {
    return core::make_engine(core::EngineKind::Dataflow, cfg.core, mem, mem);
  }
  if (cfg.engine == EngineMode::Batched) {
    return std::make_unique<BatchedCore>(cfg.core, mem);
  }
  return core::make_engine(core::EngineKind::Occupancy, cfg.core, mem, mem);
}

}  // namespace ppf::sim
