#include "core/dataflow_core.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "common/assert.hpp"

namespace ppf::core {

DataflowCore::DataflowCore(CoreConfig cfg, DataMemory& dmem, InstMemory& imem)
    : Pipeline(cfg), dmem_(&dmem), imem_(&imem) {
  rob_.resize(cfg_.rob_entries);
}

DataflowCore::DataflowCore(const DataflowCore& other, DataMemory& dmem,
                           InstMemory& imem, workload::TraceSource& trace)
    : DataflowCore(other) {
  dmem_ = &dmem;
  imem_ = &imem;
  rebind(trace);
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

void DataflowCore::open_cycle() {
  dmem_->begin_cycle(now_);
  retire(now_);
  issue_ready_mem(now_);
}

void DataflowCore::dispatch_one(Pc pc, std::uint8_t op,
                                workload::InstKind kind, bool is_mem) {
  const std::uint64_t seq = alloc_rob(is_mem);
  const std::uint8_t dst = view_.dst[idx_];
  const Addr addr = view_.operand[idx_];
  const RegState s1 = read_src(view_.src1[idx_]);
  const RegState s2 = read_src(view_.src2[idx_]);

  switch (kind) {
    case workload::InstKind::Load:
    case workload::InstKind::Store: {
      const bool is_store = kind == workload::InstKind::Store;
      if (is_store)
        ++res_.stores;
      else
        ++res_.loads;
      // Loads produce into dst; consumers park on this seq.
      if (!is_store && dst != 0) {
        regs_[dst] = RegState{0, seq};
      }
      if (s1.producer == kNoProducer) {
        ready_mem_.push_back(
            ReadyMem{seq, pc, addr, is_store, std::max(now_, s1.ready)});
      } else {
        waiting_mem_.push_back(
            WaitingMem{seq, pc, addr, is_store, s1.producer, 0});
      }
      break;
    }
    case workload::InstKind::Branch: {
      const bool correct = predict_branch(pc, op);
      if (!correct) {
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
      break;
    }
    case workload::InstKind::SwPrefetch:
      ++res_.sw_prefetches;
      dmem_->software_prefetch(now_, pc, addr);
      [[fallthrough]];
    case workload::InstKind::Op: {
      WaitingAlu w{seq, 0, dst, now_, false, false};
      if (s1.producer != kNoProducer) {
        w.producer_seq = s1.producer;
        w.other_ready =
            std::max(now_, s2.producer == kNoProducer ? s2.ready : now_);
        if (dst != 0) regs_[dst] = RegState{0, seq};
        waiting_alu_.push_back(w);
      } else if (s2.producer != kNoProducer) {
        w.producer_seq = s2.producer;
        w.other_ready = std::max(now_, s1.ready);
        if (dst != 0) regs_[dst] = RegState{0, seq};
        waiting_alu_.push_back(w);
      } else {
        const Cycle done =
            std::max({now_, s1.ready, s2.ready}) + cfg_.exec_latency;
        rob_at(seq).done = done;
        if (dst != 0) regs_[dst] = RegState{done, kNoProducer};
      }
      break;
    }
  }
}

void DataflowCore::close_cycle() { dmem_->end_cycle(now_); }

void DataflowCore::check_invariants(check::CheckContext& ctx) const {
  ctx.require(rob_next_seq_ - rob_head_seq_ == rob_count_ &&
                  rob_count_ <= cfg_.rob_entries,
              "core.rob_ring", [&] {
                return "head=" + std::to_string(rob_head_seq_) + " next=" +
                       std::to_string(rob_next_seq_) + " count=" +
                       std::to_string(rob_count_) + " capacity=" +
                       std::to_string(cfg_.rob_entries);
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
}

// The shared cycle driver, compiled once, here, where the hooks above
// can inline into it.
template class Pipeline<DataflowCore>;

}  // namespace ppf::core
