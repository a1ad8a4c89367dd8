#include "core/ooo_core.hpp"

#include <limits>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf::core {
namespace {

constexpr Cycle kNotDone = std::numeric_limits<Cycle>::max();

unsigned shift_of(unsigned bytes) {
  unsigned s = 0;
  for (unsigned v = bytes; v > 1; v >>= 1) ++s;
  return s;
}

}  // namespace

OooCore::OooCore(CoreConfig cfg, DataMemory& dmem, InstMemory& imem)
    : cfg_(cfg),
      dmem_(dmem),
      imem_(imem),
      bp_(cfg.bimodal),
      btb_(cfg.btb),
      rng_(cfg.seed),
      line_shift_(shift_of(cfg.ifetch_line_bytes)) {
  PPF_CHECK(cfg_.width >= 1);
  PPF_CHECK(cfg_.rob_entries >= cfg_.width);
  PPF_CHECK(cfg_.lsq_entries >= 1);
  // At most rob_entries sequence numbers are live at once, so slots past
  // the architectural capacity in the rounded-up ring are simply unused.
  std::uint64_t ring = 1;
  while (ring < cfg_.rob_entries) ring <<= 1;
  rob_mask_ = ring - 1;
  rob_.resize(ring);
}

OooCore::OooCore(const OooCore& other, DataMemory& dmem, InstMemory& imem,
                 workload::TraceSource& trace)
    : cfg_(other.cfg_),
      dmem_(dmem),
      imem_(imem),
      bp_(other.bp_),
      btb_(other.btb_),
      rng_(other.rng_),
      line_shift_(other.line_shift_),
      rob_mask_(other.rob_mask_) {
  copy_run_state(other);
  // `trace` may hold more records than other's did (a snapshot resumed
  // over a regrown arena), so end of trace is found again by reading it,
  // not inherited. The record sequence is the same either way.
  trace_ = &trace;
  trace_eof_ = false;
  if (fbuf_pos_ >= fbuf_len_) refill();
}

void OooCore::copy_run_state(const OooCore& o) {
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
  fbuf_ = o.fbuf_;
  fbuf_pos_ = o.fbuf_pos_;
  fbuf_len_ = o.fbuf_len_;
  trace_eof_ = o.trace_eof_;
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
  mid_cycle_ = o.mid_cycle_;
  cycle_trace_active_ = o.cycle_trace_active_;
  was_rob_full_ = o.was_rob_full_;
  fetch_stalled_ = o.fetch_stalled_;
  lsq_blocked_ = o.lsq_blocked_;
  slots_ = o.slots_;
}

std::unique_ptr<CoreEngine> OooCore::clone_rebound(
    DataMemory& dmem, InstMemory& imem, workload::TraceSource& trace) const {
  return std::unique_ptr<CoreEngine>(new OooCore(*this, dmem, imem, trace));
}

OooCore::RobEntry& OooCore::rob_at(std::uint64_t seq) {
  return rob_[seq & rob_mask_];
}

std::uint64_t OooCore::alloc_rob(bool is_mem) {
  PPF_ASSERT(!rob_full());
  const std::uint64_t seq = rob_next_seq_++;
  rob_at(seq) = RobEntry{kNotDone, is_mem, true};
  ++rob_count_;
  if (is_mem) ++lsq_count_;
  return seq;
}

void OooCore::retire(Cycle now) {
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

void OooCore::do_issue(Cycle now, const PendingMem& p, bool serial) {
  ++res_.stages.probe_records;
  const Cycle completion = dmem_.demand_access(now, p.pc, p.addr, p.is_store);
  RobEntry& e = rob_at(p.seq);
  e.issued = true;
  e.done = p.is_store ? now + 1 : completion;
  if (!p.is_store) {
    last_load_done_ = e.done;
    last_load_known_ = true;
    if (serial) serial_chain_ready_ = completion;
  }
}

void OooCore::issue_pending(Cycle now) {
  // Serial (pointer-chase) accesses go first: the chain head has been
  // waiting longest and everything behind it is address-dependent.
  while (!pending_serial_.empty() && serial_chain_ready_ <= now &&
         dmem_.try_reserve_port(now)) {
    const PendingMem p = pending_serial_.front();
    pending_serial_.pop_front();
    do_issue(now, p, /*serial=*/true);
  }
  while (!pending_mem_.empty() && dmem_.try_reserve_port(now)) {
    const PendingMem p = pending_mem_.front();
    pending_mem_.pop_front();
    do_issue(now, p, /*serial=*/false);
  }
}

void OooCore::refill() {
  fbuf_len_ = static_cast<std::uint32_t>(
      trace_eof_ ? 0 : trace_->next_batch(fbuf_.data(), kFetchBatch));
  fbuf_pos_ = 0;
  if (fbuf_len_ < kFetchBatch) trace_eof_ = true;
}

void OooCore::advance() {
  ++fbuf_pos_;
  if (fbuf_pos_ >= fbuf_len_ && !trace_eof_) refill();
}

void OooCore::bind(workload::TraceSource& trace) {
  trace_ = &trace;
  trace_eof_ = false;
  refill();
  dispatched_ = 0;
  pause_at_ = 0;
  res_ = CoreResult{};
  window_snapshot_ = CoreResult{};
  window_start_ = 0;
  now_ = 0;
  cycle_limit_ = 0;
  fetch_ready_ = 0;
  redirect_until_ = 0;
  cur_fetch_line_ = std::numeric_limits<Addr>::max();
  mid_cycle_ = false;
}

void OooCore::begin_window() {
  window_snapshot_ = res_;
  window_start_ = now_;
}

void OooCore::fast_forward_stall() {
  // The hierarchy must have no per-cycle work of its own, and no pending
  // op may be issuable this cycle (a fresh port budget arrives every
  // cycle, so a non-empty ready queue always makes progress).
  if (!dmem_.quiescent() || !pending_mem_.empty()) return;
  if (!pending_serial_.empty() && serial_chain_ready_ <= now_) return;
  const bool head_issued = rob_count_ > 0 && rob_at(rob_head_seq_).issued;
  if (head_issued && rob_at(rob_head_seq_).done <= now_) return;  // retires now

  const bool fetch_blocked = now_ < fetch_ready_ || now_ < redirect_until_;
  bool lsq_blocking = false;
  if (cycle_trace_active_ && !fetch_blocked && !rob_full()) {
    const workload::TraceRecord& rec = fbuf_[fbuf_pos_];
    const bool is_mem = rec.kind == workload::InstKind::Load ||
                        rec.kind == workload::InstKind::Store;
    if (!is_mem || lsq_count_ < cfg_.lsq_entries) return;  // can dispatch now
    // An LSQ-blocked cycle still runs the I-line probe first; only skip
    // once that probe has already happened (and hit) for this record.
    if ((rec.pc >> line_shift_) != cur_fetch_line_) return;
    lsq_blocking = true;
  }

  // Next cycle at which any state can change. Including the fetch
  // unblock point whenever fetch is currently blocked also keeps the
  // stall attribution class constant across the skipped range.
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
  // Never jump past the livelock budget: the guard in cycle() must fire
  // exactly where cycle-by-cycle stepping would have tripped it.
  if (t > cycle_limit_) t = cycle_limit_;

  const Cycle skipped = t - now_;
  if (cycle_trace_active_) {
    // Same precedence as the per-cycle attribution at the end of cycle():
    // ROB-full first, then LSQ (only reachable with fetch unblocked),
    // then fetch. All three predicates are constant across [now_, t).
    if (rob_full())
      res_.rob_full_stall_cycles += skipped;
    else if (lsq_blocking)
      res_.lsq_full_stall_cycles += skipped;
    else if (fetch_blocked)
      res_.fetch_stall_cycles += skipped;
  }
  now_ = t;
}

bool OooCore::cycle(std::uint64_t limit) {
  heartbeat_tick(dispatched_);
  if (!mid_cycle_) {
    cycle_trace_active_ = have_rec() && dispatched_ < limit;
    if (!cycle_trace_active_ && rob_count_ == 0 && pending_mem_.empty() &&
        pending_serial_.empty())
      return false;
    PPF_CHECK_MSG(now_ < cycle_limit_, "timing model livelock");
    fast_forward_stall();

    dmem_.begin_cycle(now_);
    retire(now_);
    issue_pending(now_);

    was_rob_full_ = rob_full();
    fetch_stalled_ = now_ < fetch_ready_ || now_ < redirect_until_;
    slots_ = cfg_.width;
    lsq_blocked_ = false;
  } else {
    mid_cycle_ = false;
  }

  while (slots_ > 0 && have_rec() && dispatched_ < limit) {
    if (now_ < fetch_ready_ || now_ < redirect_until_) break;
    if (rob_full()) break;
    const workload::TraceRecord& rec = fbuf_[fbuf_pos_];

    // Instruction fetch: crossing into a new I-line probes the L1I.
    const Addr line = rec.pc >> line_shift_;
    if (line != cur_fetch_line_) {
      const Cycle ready = imem_.fetch(now_, rec.pc);
      cur_fetch_line_ = line;
      if (ready > now_) {
        fetch_ready_ = ready;
        break;
      }
    }

    const bool is_mem = rec.kind == workload::InstKind::Load ||
                        rec.kind == workload::InstKind::Store;
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

    switch (rec.kind) {
      case workload::InstKind::Op:
        e.done = done;
        break;
      case workload::InstKind::SwPrefetch:
        ++res_.sw_prefetches;
        dmem_.software_prefetch(now_, rec.pc, rec.addr);
        e.done = done;
        break;
      case workload::InstKind::Branch: {
        ++res_.branches;
        const bool pred_taken = bp_.predict(rec.pc);
        const auto pred_target = btb_.lookup(rec.pc);
        bool correct = pred_taken == rec.taken;
        if (correct && rec.taken) {
          correct = pred_target.has_value() && *pred_target == rec.target;
        }
        bp_.update(rec.pc, rec.taken);
        if (rec.taken) btb_.update(rec.pc, rec.target);
        bp_.note_outcome(correct);
        e.done = done;
        if (!correct) {
          ++res_.mispredictions;
          redirect_until_ = done + cfg_.mispredict_penalty;
        }
        if (rec.taken) {
          // Control transfer: the next line fetched is the target's.
          cur_fetch_line_ = std::numeric_limits<Addr>::max();
        }
        break;
      }
      case workload::InstKind::Load:
      case workload::InstKind::Store: {
        const bool is_store = rec.kind == workload::InstKind::Store;
        if (is_store)
          ++res_.stores;
        else
          ++res_.loads;
        const PendingMem pm{seq, rec.pc, rec.addr, is_store};
        if (rec.serial) {
          // Pointer chase: issue in chain order, gated on the previous
          // serial load's data.
          if (pending_serial_.empty() && serial_chain_ready_ <= now_ &&
              dmem_.try_reserve_port(now_)) {
            do_issue(now_, pm, /*serial=*/true);
          } else {
            e.issued = false;
            e.done = kNotDone;
            pending_serial_.push_back(pm);
            if (!is_store) last_load_known_ = false;
          }
        } else if (dmem_.try_reserve_port(now_)) {
          do_issue(now_, pm, /*serial=*/false);
        } else {
          e.issued = false;
          e.done = kNotDone;
          pending_mem_.push_back(pm);
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
  dmem_.end_cycle(now_);
  ++now_;
  return true;
}

void OooCore::run_until_dispatched(std::uint64_t target) {
  PPF_CHECK(trace_ != nullptr);
  if (dispatched_ >= target) return;
  // Livelock guard: the model must always make forward progress.
  cycle_limit_ = now_ + (target - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = target;
  while (!mid_cycle_ && cycle(target)) {
  }
  pause_at_ = 0;
}

CoreResult OooCore::finish(std::uint64_t dispatch_limit) {
  PPF_CHECK(trace_ != nullptr);
  PPF_CHECK(dispatch_limit >= dispatched_);
  cycle_limit_ =
      now_ + (dispatch_limit - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = 0;
  while (cycle(dispatch_limit)) {
  }
  CoreResult out = res_;
  subtract_window(out, window_snapshot_);
  out.cycles = now_ - window_start_;
  return out;
}

void OooCore::register_obs(obs::MetricRegistry& reg) const {
  register_core_counters(reg, res_);
}

void OooCore::register_checks(check::CheckRegistry& reg) const {
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
    // queues hold entries in strict age (allocation seq) order — the
    // LSQ-age-order property retirement and serial issue depend on.
    const auto ordered = [&](const std::deque<PendingMem>& q) {
      std::uint64_t prev = 0;
      bool first = true;
      for (const PendingMem& p : q) {
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
    ctx.require(fbuf_pos_ <= fbuf_len_ && fbuf_len_ <= fbuf_.size(),
                "core.fetch_buffer", [&] {
                  return "pos=" + std::to_string(fbuf_pos_) + " len=" +
                         std::to_string(fbuf_len_);
                });
  });
}

}  // namespace ppf::core
