// ppf:hot
//
// Cycle-driven out-of-order core timing model (the occupancy model).
//
// This is deliberately a *first-order* model in the spirit of
// SimpleScalar's sim-outorder at the granularity the paper's results
// depend on: an 8-wide dispatch/retire machine limited by ROB and LSQ
// occupancy, a bimodal+BTB front end with misprediction redirect stalls,
// in-order retirement behind long-latency loads, and L1 data ports shared
// between demand accesses and the prefetch queue. Register dataflow is
// approximated statistically: each instruction depends on the youngest
// in-flight load with a configurable probability, which reproduces the
// load-use serialisation that makes cache pollution expensive.
//
// The front end, the cycle driver and the segmented CoreEngine API are
// core::Pipeline's (core/pipeline.hpp), shared with DataflowCore. This
// class is the occupancy back end the driver calls as stage kernels —
// MSHR/fill retire, cache-probe issue, dispatch, hierarchy end-of-cycle
// — built for speed:
//
//   * `Mem` is the concrete memory system — sim::MemoryHierarchy in the
//     simulator, fixed-latency fakes in the unit tests — so every
//     begin_cycle/try_reserve_port/demand_access/fetch/end_cycle call is
//     a direct call the compiler can inline. The analyzer's
//     hot-loop-no-virtual rule keeps it that way. Mem implements both
//     DataMemory and InstMemory (core/memory_iface.hpp).
//   * The pending-memory queues are flat power-of-two rings (their depth
//     is bounded by the ROB).
//   * A provable stall is skipped in one step (fast_forward_stall).
//   * Each stage kernel feeds the core.stage.* accounting: exact record
//     counts, and sampled wall-clock ns (telemetry only).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "core/engine.hpp"
#include "core/memory_iface.hpp"
#include "core/pipeline.hpp"
#include "workload/trace.hpp"

namespace ppf::core {

template <typename Mem>
class OooCore final : public Pipeline<OooCore<Mem>> {
  static_assert(std::is_base_of_v<DataMemory, Mem> &&
                    std::is_base_of_v<InstMemory, Mem>,
                "OooCore's memory implements DataMemory and InstMemory");
  using Base = Pipeline<OooCore<Mem>>;
  friend Base;

 public:
  OooCore(CoreConfig cfg, Mem& mem);
  /// Rebinding copy: duplicate `other` (typically paused at the warmup
  /// boundary) against a different memory system and trace. The caller
  /// positions `trace` at the same record offset as other's trace; in
  /// arena mode `trace` may run over a longer arena than other's.
  OooCore(const OooCore& other, Mem& mem, workload::TraceSource& trace);

  /// Clones only onto another Mem (returns nullptr for any other
  /// DataMemory/InstMemory, and when dmem/imem are not the same object)
  /// — the caller then falls back to the cold path.
  [[nodiscard]] std::unique_ptr<CoreEngine> clone_rebound(
      DataMemory& dmem, InstMemory& imem,
      workload::TraceSource& trace) const override;

 private:
  using Base::cfg_, Base::res_, Base::now_, Base::rob_count_,
      Base::lsq_count_, Base::view_, Base::idx_, Base::fetch_ready_,
      Base::redirect_until_, Base::cur_fetch_line_, Base::line_shift_,
      Base::cycle_limit_, Base::cycle_trace_active_, Base::rob_full;

  static constexpr Cycle kNotDone = std::numeric_limits<Cycle>::max();
  /// Timed cycles are 1-in-kTimingSample; the measured ns are scaled by
  /// the sample period, so the stage ns fields are whole-run estimates.
  static constexpr std::uint64_t kTimingSample = 256;
  using TimePoint = std::chrono::steady_clock::time_point;

  struct RobEntry {
    Cycle done = 0;
    bool is_mem = false;
    bool issued = true;  ///< false while waiting in a pending-issue ring
  };

  struct PendingMem {
    std::uint64_t seq = 0;
    Pc pc = 0;
    Addr addr = 0;
    bool is_store = false;
  };

  /// Flat FIFO ring for pending memory ops. Storage is the ROB ring
  /// rounded to a power of two, so occupancy (bounded by rob_count_) can
  /// never overrun and the index is a mask. head==tail means empty.
  struct PendingRing {
    std::vector<PendingMem> slots;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t mask = 0;

    [[nodiscard]] bool empty() const { return head == tail; }
    [[nodiscard]] std::uint64_t size() const { return tail - head; }
    [[nodiscard]] const PendingMem& front() const {
      return slots[head & mask];
    }
    void push(const PendingMem& p) { slots[tail++ & mask] = p; }
    void pop() { ++head; }
  };

  // --- Pipeline hooks --------------------------------------------------
  Mem& inst_memory() { return *mem_; }
  [[nodiscard]] bool redirecting() const { return now_ < redirect_until_; }
  // The driver's per-cycle calls inline, as one stage-kernel loop.
  /// Stall fast-forward, then the retire and cache-probe issue kernels.
  [[gnu::always_inline]] inline void open_cycle();
  [[gnu::always_inline]] inline void dispatch_one(Pc pc, std::uint8_t op,
                                                  workload::InstKind kind,
                                                  bool is_mem);
  /// Closes the dispatch kernel's timing, then the hierarchy's end of
  /// cycle.
  [[gnu::always_inline]] inline void close_cycle();
  /// A resumed cycle is never timed (its start was the paused one's).
  void resume_cycle() { timed_ = false; }
  void check_invariants(check::CheckContext& ctx) const;

  /// Issue one pending memory op and update its ROB entry.
  void do_issue(Cycle now, const PendingMem& p, bool serial);
  RobEntry& rob_at(std::uint64_t seq) { return rob_[seq & rob_mask_]; }
  std::uint64_t alloc_rob(bool is_mem);
  void retire(Cycle now);
  void issue_pending(Cycle now);

  /// Stall fast-forward: when provably nothing can happen this cycle —
  /// memory quiescent, no issuable pending ops, dispatch blocked — jump
  /// `now_` straight to the next event (head-of-ROB completion, serial
  /// chain ready, fetch redirect done), batching the per-cycle stall
  /// attribution. Result-identical to stepping the skipped cycles.
  [[gnu::always_inline]] inline void fast_forward_stall();

  /// Stage timing: on a timed cycle, add the wall time since the last
  /// lap (scaled by the sample period) to `ns`.
  void lap(double& ns) {
    if (!timed_) return;
    const TimePoint t = std::chrono::steady_clock::now();
    ns += std::chrono::duration<double, std::nano>(t - lap_start_).count() *
          kTimingSample;
    lap_start_ = t;
  }

  /// The whole machine, memory binding and trace included; the rebinding
  /// copy then rebinds those.
  OooCore(const OooCore&) = default;

  Mem* mem_;
  Xorshift rng_;

  /// rob_ storage is rounded up to a power of two so the ring index is a
  /// mask, not a modulo; capacity checks still use cfg_.rob_entries.
  std::uint64_t rob_mask_ = 0;
  std::vector<RobEntry> rob_;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t rob_next_seq_ = 0;
  PendingRing pending_mem_;
  /// Pointer-chase accesses: issue strictly in order, each gated on the
  /// previous serial load's completion (true data dependence).
  PendingRing pending_serial_;
  Cycle serial_chain_ready_ = 0;

  Cycle last_load_done_ = 0;
  bool last_load_known_ = true;

  std::uint64_t timing_tick_ = 0;
  bool timed_ = false;  ///< this cycle's stages are being timed
  TimePoint lap_start_{};
};

template <typename Mem>
OooCore<Mem>::OooCore(CoreConfig cfg, Mem& mem)
    : Base(cfg), mem_(&mem), rng_(cfg.seed) {
  // At most rob_entries sequence numbers are live at once, so slots past
  // the architectural capacity in the rounded-up ring are simply unused.
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

template <typename Mem>
OooCore<Mem>::OooCore(const OooCore& other, Mem& mem,
                      workload::TraceSource& trace)
    : OooCore(other) {
  mem_ = &mem;
  this->rebind(trace);
}

template <typename Mem>
std::unique_ptr<CoreEngine> OooCore<Mem>::clone_rebound(
    DataMemory& dmem, InstMemory& imem, workload::TraceSource& trace) const {
  auto* mem = dynamic_cast<Mem*>(&dmem);
  if (mem == nullptr || mem != dynamic_cast<Mem*>(&imem)) return nullptr;
  return std::unique_ptr<CoreEngine>(new OooCore(*this, *mem, trace));
}

template <typename Mem>
std::uint64_t OooCore<Mem>::alloc_rob(bool is_mem) {
  PPF_ASSERT(!rob_full());
  const std::uint64_t seq = rob_next_seq_++;
  rob_at(seq) = RobEntry{kNotDone, is_mem, true};
  ++rob_count_;
  if (is_mem) ++lsq_count_;
  return seq;
}

template <typename Mem>
void OooCore<Mem>::retire(Cycle now) {
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

template <typename Mem>
void OooCore<Mem>::do_issue(Cycle now, const PendingMem& p, bool serial) {
  ++res_.stages.probe_records;
  const Cycle completion = mem_->demand_access(now, p.pc, p.addr, p.is_store);
  RobEntry& e = rob_at(p.seq);
  e.issued = true;
  e.done = p.is_store ? now + 1 : completion;
  if (!p.is_store) {
    last_load_done_ = e.done;
    last_load_known_ = true;
    if (serial) serial_chain_ready_ = completion;
  }
}

template <typename Mem>
void OooCore<Mem>::issue_pending(Cycle now) {
  // Serial (pointer-chase) accesses go first: the chain head has been
  // waiting longest and everything behind it is address-dependent.
  while (!pending_serial_.empty() && serial_chain_ready_ <= now &&
         mem_->try_reserve_port(now)) {
    const PendingMem p = pending_serial_.front();
    pending_serial_.pop();
    do_issue(now, p, /*serial=*/true);
  }
  while (!pending_mem_.empty() && mem_->try_reserve_port(now)) {
    const PendingMem p = pending_mem_.front();
    pending_mem_.pop();
    do_issue(now, p, /*serial=*/false);
  }
}

template <typename Mem>
void OooCore<Mem>::fast_forward_stall() {
  // The hierarchy must have no per-cycle work of its own, and no pending
  // op may be issuable this cycle (a fresh port budget arrives every
  // cycle, so a non-empty ready queue always makes progress).
  if (!mem_->quiescent() || !pending_mem_.empty()) return;
  if (!pending_serial_.empty() && serial_chain_ready_ <= now_) return;
  const bool head_issued = rob_count_ > 0 && rob_at(rob_head_seq_).issued;
  if (head_issued && rob_at(rob_head_seq_).done <= now_) return;  // retires now

  const bool blocked = this->fetch_blocked();
  bool lsq_blocking = false;
  if (cycle_trace_active_ && !blocked && !rob_full()) {
    if (!Base::is_mem(workload::op_kind(view_.op[idx_])) ||
        !this->lsq_full())
      return;  // can dispatch now
    // An LSQ-blocked cycle still runs the I-line probe first; only skip
    // once that probe has already happened (and hit) for this record.
    if ((view_.pc[idx_] >> line_shift_) != cur_fetch_line_) return;
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
  if (blocked) {
    const Cycle unblock =
        fetch_ready_ > redirect_until_ ? fetch_ready_ : redirect_until_;
    if (unblock < t) t = unblock;
  }
  if (t == kNotDone || t <= now_) return;
  // Never jump past the livelock budget: the guard in the cycle driver
  // must fire exactly where cycle-by-cycle stepping would have tripped it.
  if (t > cycle_limit_) t = cycle_limit_;

  // Same precedence as the driver's per-cycle attribution; all three
  // predicates are constant across [now_, t).
  if (cycle_trace_active_) {
    this->charge_stall(rob_full(), lsq_blocking, blocked, t - now_);
  }
  now_ = t;
}

template <typename Mem>
void OooCore<Mem>::open_cycle() {
  fast_forward_stall();
  // Stage timing is sampled 1-in-kTimingSample cycles and scaled up;
  // resumed (mid-cycle) entries are never timed. Timing never touches
  // simulated state, so the ns estimates cannot perturb determinism.
  timed_ = (timing_tick_++ & (kTimingSample - 1)) == 0;
  if (timed_) lap_start_ = std::chrono::steady_clock::now();
  mem_->begin_cycle(now_);
  retire(now_);
  lap(res_.stages.retire_ns);
  issue_pending(now_);
  lap(res_.stages.probe_ns);
}

template <typename Mem>
void OooCore<Mem>::dispatch_one(Pc pc, std::uint8_t op,
                                workload::InstKind kind, bool is_mem) {
  ++res_.stages.fetch_records;
  const std::uint64_t seq = alloc_rob(is_mem);
  RobEntry& e = rob_at(seq);
  Cycle done = now_ + cfg_.exec_latency;
  // Statistical dataflow: consume the youngest load with prob p.
  if (lsq_count_ > (is_mem ? 1U : 0U) && rng_.chance(cfg_.dep_on_load_prob)) {
    if (last_load_known_ && last_load_done_ > done) done = last_load_done_;
  }

  switch (kind) {
    case workload::InstKind::Op:
      e.done = done;
      break;
    case workload::InstKind::SwPrefetch:
      ++res_.sw_prefetches;
      mem_->software_prefetch(now_, pc, view_.operand[idx_]);
      e.done = done;
      break;
    case workload::InstKind::Branch:
      e.done = done;
      if (!this->predict_branch(pc, op)) {
        redirect_until_ = done + cfg_.mispredict_penalty;
      }
      break;
    case workload::InstKind::Load:
    case workload::InstKind::Store: {
      const bool is_store = kind == workload::InstKind::Store;
      if (is_store)
        ++res_.stores;
      else
        ++res_.loads;
      const PendingMem pm{seq, pc, view_.operand[idx_], is_store};
      if ((op & workload::kOpSerial) != 0) {
        // Pointer chase: issue in chain order, gated on the previous
        // serial load's data.
        if (pending_serial_.empty() && serial_chain_ready_ <= now_ &&
            mem_->try_reserve_port(now_)) {
          do_issue(now_, pm, /*serial=*/true);
        } else {
          e.issued = false;
          e.done = kNotDone;
          pending_serial_.push(pm);
          if (!is_store) last_load_known_ = false;
        }
      } else if (mem_->try_reserve_port(now_)) {
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
}

template <typename Mem>
void OooCore<Mem>::close_cycle() {
  lap(res_.stages.fetch_ns);
  ++res_.stages.memsys_records;
  mem_->end_cycle(now_);
  lap(res_.stages.memsys_ns);
}
// ppf:cold

template <typename Mem>
void OooCore<Mem>::check_invariants(check::CheckContext& ctx) const {
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
  // Every pending op occupies a not-yet-issued ROB entry, and both rings
  // hold entries in strict age (allocation seq) order — the LSQ-age-order
  // property retirement and serial issue depend on.
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
}

}  // namespace ppf::core
