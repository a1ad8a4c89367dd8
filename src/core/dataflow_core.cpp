#include "core/dataflow_core.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "common/assert.hpp"

namespace ppf::core {
namespace {

unsigned shift_of(unsigned bytes) {
  unsigned s = 0;
  for (unsigned v = bytes; v > 1; v >>= 1) ++s;
  return s;
}

}  // namespace

DataflowCore::DataflowCore(CoreConfig cfg, DataMemory& dmem, InstMemory& imem)
    : cfg_(cfg),
      dmem_(&dmem),
      imem_(&imem),
      bp_(cfg.bimodal),
      btb_(cfg.btb),
      line_shift_(shift_of(cfg.ifetch_line_bytes)) {
  PPF_CHECK(cfg_.width >= 1);
  PPF_CHECK(cfg_.rob_entries >= cfg_.width);
  PPF_CHECK(cfg_.lsq_entries >= 1);
  rob_.resize(cfg_.rob_entries);
}

DataflowCore::DataflowCore(const DataflowCore& other, DataMemory& dmem,
                           InstMemory& imem, workload::TraceSource& trace)
    : DataflowCore(other) {
  dmem_ = &dmem;
  imem_ = &imem;
  set_heartbeat(nullptr);  // the caller rewires it per clone
  // `trace` may hold more records than other's did (a snapshot resumed
  // over a regrown arena), so end of trace is found again by reading it,
  // not inherited. The record sequence is the same either way.
  trace_ = &trace;
  window_.eof = false;
  if (win_pos_ >= window_.len) refill();
}

std::unique_ptr<CoreEngine> DataflowCore::clone_rebound(
    DataMemory& dmem, InstMemory& imem, workload::TraceSource& trace) const {
  return std::unique_ptr<CoreEngine>(new DataflowCore(*this, dmem, imem, trace));
}

DataflowCore::RobEntry& DataflowCore::rob_at(std::uint64_t seq) {
  return rob_[seq % cfg_.rob_entries];
}

std::uint64_t DataflowCore::alloc_rob(bool is_mem) {
  PPF_ASSERT(!rob_full());
  const std::uint64_t seq = rob_next_seq_++;
  rob_at(seq) = RobEntry{kUnknown, is_mem};
  ++rob_count_;
  if (is_mem) ++lsq_count_;
  return seq;
}

void DataflowCore::retire(Cycle now) {
  unsigned n = 0;
  while (rob_count_ > 0 && n < cfg_.width) {
    RobEntry& head = rob_at(rob_head_seq_);
    if (head.done == kUnknown || head.done > now) break;
    if (head.is_mem) {
      PPF_ASSERT(lsq_count_ > 0);
      --lsq_count_;
    }
    ++rob_head_seq_;
    --rob_count_;
    ++n;
  }
}

void DataflowCore::complete_alu(const WaitingAlu& w, Cycle src_ready,
                                Cycle now) {
  const Cycle start = std::max(w.other_ready, src_ready);
  const Cycle done = start + cfg_.exec_latency;
  if (w.mispredicted) {
    PPF_ASSERT(redirect_pending_ && redirect_seq_ == w.seq);
    redirect_pending_ = false;
    redirect_until_ = done + cfg_.mispredict_penalty;
  }
  resolve(w.seq, done, now);
}

void DataflowCore::resolve(std::uint64_t seq, Cycle done, Cycle now) {
  rob_at(seq).done = done;
  // Publish to any register still naming this seq as its producer.
  for (RegState& r : regs_) {
    if (r.producer == seq) {
      r.producer = kNoProducer;
      r.ready = done;
    }
  }
  // Wake memory ops whose address this produced.
  for (std::size_t i = 0; i < waiting_mem_.size();) {
    if (waiting_mem_[i].producer_seq == seq) {
      const WaitingMem w = waiting_mem_[i];
      waiting_mem_[i] = waiting_mem_.back();
      waiting_mem_.pop_back();
      ready_mem_.push_back(ReadyMem{w.seq, w.pc, w.addr, w.is_store, done});
    } else {
      ++i;
    }
  }
  // Wake ALU consumers. A woken consumer may still have a second
  // unresolved source: re-park it on that producer.
  for (std::size_t i = 0; i < waiting_alu_.size();) {
    if (waiting_alu_[i].producer_seq == seq) {
      WaitingAlu w = waiting_alu_[i];
      waiting_alu_[i] = waiting_alu_.back();
      waiting_alu_.pop_back();
      complete_alu(w, done, now);
      i = 0;  // the vector changed arbitrarily; restart the scan
    } else {
      ++i;
    }
  }
}

void DataflowCore::issue_ready_mem(Cycle now) {
  // Oldest-first among address-ready entries, port-limited.
  std::sort(ready_mem_.begin(), ready_mem_.end(),
            [](const ReadyMem& a, const ReadyMem& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < ready_mem_.size();) {
    ReadyMem& m = ready_mem_[i];
    if (m.addr_ready > now) {
      ++i;
      continue;
    }
    if (!dmem_->try_reserve_port(now)) break;
    const Cycle completion =
        dmem_->demand_access(now, m.pc, m.addr, m.is_store);
    const Cycle done = m.is_store ? now + 1 : completion;
    const std::uint64_t seq = m.seq;
    ready_mem_.erase(ready_mem_.begin() + static_cast<std::ptrdiff_t>(i));
    resolve(seq, done, now);
  }
}

DataflowCore::RegState DataflowCore::read_src(std::uint8_t r) const {
  // Reads a source register's state at dispatch time. producer ==
  // kNoProducer means `ready` is authoritative.
  if (r == 0) return RegState{0, kNoProducer};
  return regs_[r];
}

void DataflowCore::refill() {
  window_.refill(*trace_);
  win_pos_ = 0;
}

void DataflowCore::advance() {
  ++win_pos_;
  if (win_pos_ >= window_.len && !window_.eof) refill();
}

void DataflowCore::bind(workload::TraceSource& trace) {
  trace_ = &trace;
  window_.eof = false;
  refill();
  dispatched_ = 0;
  pause_at_ = 0;
  res_ = CoreResult{};
  window_snapshot_ = CoreResult{};
  window_start_ = 0;
  now_ = 0;
  cycle_limit_ = 0;
  fetch_ready_ = 0;
  cur_fetch_line_ = std::numeric_limits<Addr>::max();
  mid_cycle_ = false;
}

void DataflowCore::begin_window() {
  window_snapshot_ = res_;
  window_start_ = now_;
}

bool DataflowCore::cycle(std::uint64_t limit) {
  heartbeat_tick(dispatched_);
  if (!mid_cycle_) {
    cycle_trace_active_ = have_rec() && dispatched_ < limit;
    if (!cycle_trace_active_ && rob_count_ == 0) return false;
    PPF_CHECK_MSG(now_ < cycle_limit_, "dataflow core livelock");

    dmem_->begin_cycle(now_);
    retire(now_);
    issue_ready_mem(now_);

    was_rob_full_ = rob_full();
    slots_ = cfg_.width;
    lsq_blocked_ = false;
    fetch_stalled_ = false;
  } else {
    mid_cycle_ = false;
  }

  while (slots_ > 0 && have_rec() && dispatched_ < limit) {
    if (redirect_pending_ || now_ < redirect_until_ || now_ < fetch_ready_) {
      fetch_stalled_ = true;
      break;
    }
    if (rob_full()) break;
    const workload::TraceRecord rec =
        window_.records.columns().get(win_pos_);

    const Addr line = rec.pc >> line_shift_;
    if (line != cur_fetch_line_) {
      const Cycle ready = imem_->fetch(now_, rec.pc);
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
    const RegState s1 = read_src(rec.src1);
    const RegState s2 = read_src(rec.src2);

    switch (rec.kind) {
      case workload::InstKind::Load:
      case workload::InstKind::Store: {
        const bool is_store = rec.kind == workload::InstKind::Store;
        if (is_store)
          ++res_.stores;
        else
          ++res_.loads;
        // Loads produce into dst; consumers park on this seq.
        if (!is_store && rec.dst != 0) {
          regs_[rec.dst] = RegState{0, seq};
        }
        if (s1.producer == kNoProducer) {
          ready_mem_.push_back(ReadyMem{seq, rec.pc, rec.addr, is_store,
                                        std::max(now_, s1.ready)});
        } else {
          waiting_mem_.push_back(
              WaitingMem{seq, rec.pc, rec.addr, is_store, s1.producer, 0});
        }
        break;
      }
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
        if (!correct) {
          ++res_.mispredictions;
          redirect_pending_ = true;
          redirect_seq_ = seq;
        }
        WaitingAlu w{seq, 0, 0, now_, true, !correct};
        if (s1.producer != kNoProducer) {
          w.producer_seq = s1.producer;
          w.other_ready =
              std::max(now_, s2.producer == kNoProducer ? s2.ready : now_);
          // A doubly-unresolved branch re-parks on s2 via complete_alu's
          // caller; to keep it simple we conservatively wait on s1 then
          // treat s2 as ready (second-source chains are rare for
          // branches in our traces).
          waiting_alu_.push_back(w);
        } else if (s2.producer != kNoProducer) {
          w.producer_seq = s2.producer;
          w.other_ready = std::max(now_, s1.ready);
          waiting_alu_.push_back(w);
        } else {
          complete_alu(w, std::max({now_, s1.ready, s2.ready}), now_);
        }
        if (rec.taken) {
          cur_fetch_line_ = std::numeric_limits<Addr>::max();
        }
        break;
      }
      case workload::InstKind::SwPrefetch:
        ++res_.sw_prefetches;
        dmem_->software_prefetch(now_, rec.pc, rec.addr);
        [[fallthrough]];
      case workload::InstKind::Op: {
        WaitingAlu w{seq, 0, rec.dst, now_, false, false};
        if (s1.producer != kNoProducer) {
          w.producer_seq = s1.producer;
          w.other_ready =
              std::max(now_, s2.producer == kNoProducer ? s2.ready : now_);
          if (rec.dst != 0) regs_[rec.dst] = RegState{0, seq};
          waiting_alu_.push_back(w);
        } else if (s2.producer != kNoProducer) {
          w.producer_seq = s2.producer;
          w.other_ready = std::max(now_, s1.ready);
          if (rec.dst != 0) regs_[rec.dst] = RegState{0, seq};
          waiting_alu_.push_back(w);
        } else {
          const Cycle done =
              std::max({now_, s1.ready, s2.ready}) + cfg_.exec_latency;
          rob_at(seq).done = done;
          if (rec.dst != 0) regs_[rec.dst] = RegState{done, kNoProducer};
        }
        break;
      }
    }

    ++dispatched_;
    ++res_.instructions;
    --slots_;
    advance();
    if (dispatched_ == pause_at_) {
      // Pause exactly at the boundary, before finishing the cycle; the
      // resumed (or cloned) core re-enters here with mid_cycle_ set.
      mid_cycle_ = true;
      return true;
    }
    if (redirect_pending_ || now_ < redirect_until_) break;
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

  dmem_->end_cycle(now_);
  ++now_;
  return true;
}

void DataflowCore::run_until_dispatched(std::uint64_t target) {
  PPF_CHECK(trace_ != nullptr);
  if (dispatched_ >= target) return;
  // Livelock guard: the model must always make forward progress.
  cycle_limit_ = now_ + (target - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = target;
  while (!mid_cycle_ && cycle(target)) {
  }
  pause_at_ = 0;
}

CoreResult DataflowCore::finish(std::uint64_t dispatch_limit) {
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

void DataflowCore::register_obs(obs::MetricRegistry& reg) const {
  register_core_counters(reg, res_);
}

void DataflowCore::register_checks(check::CheckRegistry& reg) const {
  reg.add("core", [this](check::CheckContext& ctx) {
    ctx.require(rob_next_seq_ - rob_head_seq_ == rob_count_ &&
                    rob_count_ <= cfg_.rob_entries,
                "core.rob_ring", [&] {
                  return "head=" + std::to_string(rob_head_seq_) + " next=" +
                         std::to_string(rob_next_seq_) + " count=" +
                         std::to_string(rob_count_) + " capacity=" +
                         std::to_string(cfg_.rob_entries);
                });
    ctx.require(lsq_count_ <= cfg_.lsq_entries && lsq_count_ <= rob_count_,
                "core.lsq_bound", [&] {
                  return "lsq=" + std::to_string(lsq_count_) + " capacity=" +
                         std::to_string(cfg_.lsq_entries) + " rob=" +
                         std::to_string(rob_count_);
                });
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      ctx.require(regs_[r].producer == kNoProducer ||
                      regs_[r].producer < rob_next_seq_,
                  "core.reg_producer", [&] {
                    return "r" + std::to_string(r) + " producer seq " +
                           std::to_string(regs_[r].producer) +
                           " was never allocated (next=" +
                           std::to_string(rob_next_seq_) + ")";
                  });
    }
    ctx.require(win_pos_ <= window_.len && window_.len <= kFetchBatch,
                "core.fetch_buffer", [&] {
                  return "pos=" + std::to_string(win_pos_) + " len=" +
                         std::to_string(window_.len);
                });
  });
}

}  // namespace ppf::core
