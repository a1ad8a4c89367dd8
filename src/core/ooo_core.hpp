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
// The cycle loop is a sequence of stage kernels — MSHR/fill retire,
// cache-probe issue, fetch/dispatch, hierarchy end-of-cycle — built for
// speed:
//
//   * Decode reads straight off the MaterializedTrace columns when the
//     trace is an arena cursor. Other sources write the same columns
//     into a kFetchBatch staging window (FetchWindow) through next_batch,
//     so the inner loop is one shape either way.
//   * `Mem` is the concrete memory system — sim::MemoryHierarchy in the
//     simulator, fixed-latency fakes in the unit tests — so every
//     begin_cycle/try_reserve_port/demand_access/fetch/end_cycle call is
//     a direct call the compiler can inline. The analyzer's
//     hot-loop-no-virtual rule keeps it that way. Mem implements both
//     DataMemory and InstMemory (core/memory_iface.hpp).
//   * The pending-memory queues are flat power-of-two rings (their depth
//     is bounded by the ROB).
//   * Each stage kernel feeds the core.stage.* accounting: exact record
//     counts, and sampled wall-clock ns (telemetry only).
//
// All run state lives in members so a run can pause at the warmup
// boundary and resume (or be cloned and resumed per filter variant) —
// see core/engine.hpp.
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
#include "core/branch_predictor.hpp"
#include "core/btb.hpp"
#include "core/engine.hpp"
#include "core/memory_iface.hpp"
#include "workload/materialized.hpp"
#include "workload/trace.hpp"

namespace ppf::core {

template <typename Mem>
class OooCore final : public CoreEngine {
  static_assert(std::is_base_of_v<DataMemory, Mem> &&
                    std::is_base_of_v<InstMemory, Mem>,
                "OooCore's memory implements DataMemory and InstMemory");

 public:
  OooCore(CoreConfig cfg, Mem& mem);
  /// Rebinding copy: duplicate `other` (typically paused at the warmup
  /// boundary) against a different memory system and trace. The caller
  /// positions `trace` at the same record offset as other's trace; in
  /// arena mode `trace` may run over a longer arena than other's.
  OooCore(const OooCore& other, Mem& mem, workload::TraceSource& trace);

  void bind(workload::TraceSource& trace) override;
  void run_until_dispatched(std::uint64_t target) override;
  void begin_window() override;
  CoreResult finish(std::uint64_t dispatch_limit) override;
  [[nodiscard]] std::uint64_t dispatched() const override {
    return dispatched_;
  }
  /// Clones only onto another Mem (returns nullptr for any other
  /// DataMemory/InstMemory, and when dmem/imem are not the same object)
  /// — the caller then falls back to the cold path.
  [[nodiscard]] std::unique_ptr<CoreEngine> clone_rebound(
      DataMemory& dmem, InstMemory& imem,
      workload::TraceSource& trace) const override;
  void register_obs(obs::MetricRegistry& reg) const override;
  void register_checks(check::CheckRegistry& reg) const override;

 private:
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

  static unsigned shift_of(unsigned bytes) {
    unsigned s = 0;
    for (unsigned v = bytes; v > 1; v >>= 1) ++s;
    return s;
  }
  static double ns_between(TimePoint a, TimePoint b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  }

  /// Issue one pending memory op and update its ROB entry.
  void do_issue(Cycle now, const PendingMem& p, bool serial);
  [[nodiscard]] bool rob_full() const {
    return rob_count_ == cfg_.rob_entries;
  }
  RobEntry& rob_at(std::uint64_t seq) { return rob_[seq & rob_mask_]; }
  std::uint64_t alloc_rob(bool is_mem);
  void retire(Cycle now);
  void issue_pending(Cycle now);

  // Decode-window plumbing: view_ points either at the shared arena's
  // columns (arena mode; idx_ is the absolute record index) or at the
  // staging window (stream mode; idx_ in [0, win_end_)).
  [[nodiscard]] bool have_rec() const { return idx_ < win_end_; }
  void refill_stream();
  void advance();
  /// Arena mode: publish idx_ back into the cursor so a paused engine's
  /// trace position is observable (snapshots clone the cursor at pos()).
  void sync_cursor();

  /// Simulate one cycle (or resume the paused one). Returns false when
  /// the trace is exhausted and the pipeline has drained. Pauses
  /// mid-cycle (mid_cycle_ set, returns true) when dispatched_ reaches
  /// pause_at_.
  bool cycle(std::uint64_t limit);

  /// Stall fast-forward: when provably nothing can happen this cycle —
  /// memory quiescent, no issuable pending ops, dispatch blocked — jump
  /// `now_` straight to the next event (head-of-ROB completion, serial
  /// chain ready, fetch redirect done), batching the per-cycle stall
  /// attribution. Result-identical to stepping the skipped cycles.
  void fast_forward_stall();

  /// The whole machine, memory binding and trace included; the rebinding
  /// copy then rebinds those.
  OooCore(const OooCore&) = default;

  CoreConfig cfg_;
  Mem* mem_;
  BimodalPredictor bp_;
  Btb btb_;
  Xorshift rng_;
  unsigned line_shift_ = 0;

  /// rob_ storage is rounded up to a power of two so the ring index is a
  /// mask, not a modulo; capacity checks still use cfg_.rob_entries.
  std::uint64_t rob_mask_ = 0;
  std::vector<RobEntry> rob_;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t rob_next_seq_ = 0;
  unsigned rob_count_ = 0;
  unsigned lsq_count_ = 0;
  PendingRing pending_mem_;
  /// Pointer-chase accesses: issue strictly in order, each gated on the
  /// previous serial load's completion (true data dependence).
  PendingRing pending_serial_;
  Cycle serial_chain_ready_ = 0;

  Cycle last_load_done_ = 0;
  bool last_load_known_ = true;

  // --- per-run state (reset by bind) ---------------------------------
  workload::TraceSource* trace_ = nullptr;
  workload::TraceCursor* cursor_ = nullptr;  ///< non-null in arena mode
  std::shared_ptr<const workload::MaterializedTrace> arena_;
  workload::ColumnView view_;
  std::size_t idx_ = 0;
  std::size_t win_end_ = 0;
  bool arena_mode_ = false;
  FetchWindow window_;  ///< stream mode's staging window

  std::uint64_t dispatched_ = 0;
  std::uint64_t pause_at_ = 0;  ///< 0 = no pause requested
  CoreResult res_;
  CoreResult window_snapshot_;
  Cycle window_start_ = 0;
  Cycle now_ = 0;
  Cycle cycle_limit_ = 0;  ///< livelock guard, recomputed per segment
  Cycle fetch_ready_ = 0;
  Cycle redirect_until_ = 0;
  Addr cur_fetch_line_ = std::numeric_limits<Addr>::max();
  std::uint64_t timing_tick_ = 0;

  // Mid-cycle pause state (valid while mid_cycle_).
  bool mid_cycle_ = false;
  bool cycle_trace_active_ = false;
  bool was_rob_full_ = false;
  bool fetch_stalled_ = false;
  bool lsq_blocked_ = false;
  unsigned slots_ = 0;
};

template <typename Mem>
OooCore<Mem>::OooCore(CoreConfig cfg, Mem& mem)
    : cfg_(cfg),
      mem_(&mem),
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
  set_heartbeat(nullptr);  // the caller rewires it per clone
  trace_ = &trace;
  if (arena_mode_) {
    cursor_ = dynamic_cast<workload::TraceCursor*>(&trace);
    PPF_CHECK_MSG(cursor_ != nullptr,
                  "arena-bound clone requires a TraceCursor");
    // The cursor may read a longer arena than other's (a snapshot resumed
    // after its arena was regrown); decode runs to the new arena's end.
    arena_ = cursor_->arena();
    view_ = arena_->view();
    win_end_ = arena_->size();
    PPF_CHECK_MSG(cursor_->pos() == idx_ && idx_ <= win_end_,
                  "clone cursor mispositioned");
  } else {
    // Stream mode: the staging window was copied with the machine; the
    // view must target *our* copy, not other's.
    cursor_ = nullptr;
    arena_.reset();
    view_ = window_.records.columns();
  }
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

// ppf:cold — stream-mode refill goes through the virtual TraceSource;
// it runs once per kFetchBatch records, never per instruction.
template <typename Mem>
void OooCore<Mem>::refill_stream() {
  window_.refill(*trace_);
  idx_ = 0;
  win_end_ = window_.len;
}
// ppf:hot

template <typename Mem>
void OooCore<Mem>::advance() {
  ++idx_;
  if (!arena_mode_ && idx_ >= win_end_ && !window_.eof) refill_stream();
}

template <typename Mem>
void OooCore<Mem>::sync_cursor() {
  if (cursor_ != nullptr) cursor_->seek(idx_);
}

template <typename Mem>
void OooCore<Mem>::bind(workload::TraceSource& trace) {
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
  } else {
    arena_.reset();
    window_.eof = false;
    view_ = window_.records.columns();
    refill_stream();
  }
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
  timing_tick_ = 0;
  mid_cycle_ = false;
}

template <typename Mem>
void OooCore<Mem>::begin_window() {
  window_snapshot_ = res_;
  window_start_ = now_;
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

  const bool fetch_blocked = now_ < fetch_ready_ || now_ < redirect_until_;
  bool lsq_blocking = false;
  if (cycle_trace_active_ && !fetch_blocked && !rob_full()) {
    const auto kind = workload::op_kind(view_.op[idx_]);
    const bool is_mem =
        kind == workload::InstKind::Load || kind == workload::InstKind::Store;
    if (!is_mem || lsq_count_ < cfg_.lsq_entries) return;  // can dispatch now
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

template <typename Mem>
bool OooCore<Mem>::cycle(std::uint64_t limit) {
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
    mem_->begin_cycle(now_);
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
      const Cycle ready = mem_->fetch(now_, pc);
      cur_fetch_line_ = line;
      if (ready > now_) {
        fetch_ready_ = ready;
        break;
      }
    }

    const auto kind = workload::op_kind(view_.op[idx_]);
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
        mem_->software_prefetch(now_, pc, view_.operand[idx_]);
        e.done = done;
        break;
      case workload::InstKind::Branch: {
        ++res_.branches;
        const bool taken = (view_.op[idx_] & workload::kOpTaken) != 0;
        const Addr target = view_.operand[idx_];
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
        const PendingMem pm{seq, pc, view_.operand[idx_], is_store};
        if ((view_.op[idx_] & workload::kOpSerial) != 0) {
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
  mem_->end_cycle(now_);
  if (timed) {
    res_.stages.memsys_ns +=
        ns_between(t0, std::chrono::steady_clock::now()) * kTimingSample;
  }
  ++now_;
  return true;
}

template <typename Mem>
void OooCore<Mem>::run_until_dispatched(std::uint64_t target) {
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

template <typename Mem>
CoreResult OooCore<Mem>::finish(std::uint64_t dispatch_limit) {
  PPF_CHECK(trace_ != nullptr);
  PPF_CHECK(dispatch_limit >= dispatched_);
  cycle_limit_ =
      now_ + (dispatch_limit - dispatched_ + 1024) * 512 + 10'000'000ULL;
  pause_at_ = 0;
  while (cycle(dispatch_limit)) {
  }
  sync_cursor();
  CoreResult out = res_;
  subtract_window(out, window_snapshot_);
  out.cycles = now_ - window_start_;
  return out;
}

template <typename Mem>
void OooCore<Mem>::register_obs(obs::MetricRegistry& reg) const {
  register_core_counters(reg, res_);
}

template <typename Mem>
void OooCore<Mem>::register_checks(check::CheckRegistry& reg) const {
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
    // rings hold entries in strict age (allocation seq) order — the
    // LSQ-age-order property retirement and serial issue depend on.
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
                    : (idx_ <= win_end_ && win_end_ <= kFetchBatch);
    ctx.require(window_ok, "core.fetch_buffer", [&] {
      return "idx=" + std::to_string(idx_) + " end=" +
             std::to_string(win_end_) + " arena=" +
             (arena_mode_ ? std::to_string(arena_->size()) : "stream");
    });
  });
}

}  // namespace ppf::core
