// The machine both timing models share.
//
// OooCore (occupancy) and DataflowCore (register dataflow) differ only in
// how they schedule dispatched work. Everything around that is this CRTP
// base: the decode window, the I-line probe, the LSQ-full check, bimodal
// + BTB prediction, dispatch bookkeeping with the warmup pause, stall
// attribution, and the segmented CoreEngine API with its livelock budget.
// One cycle driver runs both models; it reaches the core's back end
// through hooks bound at compile time (no virtual call per cycle):
//
//   open_cycle()              memory start-of-cycle, retire, issue
//   redirecting()             fetch waits on a branch redirect
//   dispatch_one(pc, op, kind, is_mem)
//                             allocate the record's ROB entry, schedule it
//   close_cycle()             memory end-of-cycle
//   resume_cycle()            a paused cycle resumes (default: nothing)
//   inst_memory()             what the I-line probe fetches from
//   check_invariants(ctx)     the core's own structural invariants
//
// Decode reads straight off a MaterializedTrace's columns when the trace
// is an arena cursor: idx_ is the absolute record index, published back
// to the cursor at every pause so snapshots clone the cursor at the
// decode position. Any other source writes the same columns, kFetchBatch
// records at a time, into a FetchWindow from a cold-path refill, so the
// dispatch loop is one shape either way.
//
// The class and its per-cycle helpers are marked hot, so the
// hot-loop-no-virtual rule and the determinism-taint pass guard them.
// All run state lives in members so a run can pause at the warmup
// boundary and resume (or be cloned and resumed per filter variant) —
// see core/engine.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/branch_predictor.hpp"
#include "core/btb.hpp"
#include "core/engine.hpp"
#include "workload/materialized.hpp"
#include "workload/trace.hpp"

namespace ppf::core {

/// Records pulled from a streamed trace per next_batch() call. Amortises
/// the virtual dispatch that a per-record next() paid on every
/// instruction.
inline constexpr std::size_t kFetchBatch = 64;

/// The staging window over a streamed trace: up to kFetchBatch records
/// in the arena's column layout, filled by one next_batch call.
struct FetchWindow {
  workload::ColumnBuffer<kFetchBatch> records{};
  std::size_t len = 0;
  bool eof = true;  ///< the source ran dry: refill() reads no more

  /// Replace the window's records with the source's next batch.
  void refill(workload::TraceSource& src) {
    len = eof ? 0 : src.next_batch(records.columns(), kFetchBatch);
    if (len < kFetchBatch) eof = true;
  }
};

// ppf:hot
template <typename Core>
class Pipeline : public CoreEngine {
 public:
  void bind(workload::TraceSource& trace) final;
  void run_until_dispatched(std::uint64_t target) final;
  void begin_window() final;
  CoreResult finish(std::uint64_t dispatch_limit) final;
  [[nodiscard]] std::uint64_t dispatched() const final { return dispatched_; }
  void register_obs(obs::MetricRegistry& reg) const final;
  /// The core's invariants, then the two this base keeps: core.lsq_bound
  /// and core.fetch_buffer.
  void register_checks(check::CheckRegistry& reg) const final;

 protected:
  static constexpr Addr kNoLine = std::numeric_limits<Addr>::max();

  /// Second half of a core's rebinding copy: read on from `trace`, which
  /// the caller positions where this machine's trace stood. It may run
  /// past the point where the original's trace ended (a longer arena of
  /// the same records); decode reads on to its end.
  void rebind(workload::TraceSource& trace);

  [[nodiscard]] bool rob_full() const {
    return rob_count_ == cfg_.rob_entries;
  }
  [[nodiscard]] bool lsq_full() const {
    return lsq_count_ >= cfg_.lsq_entries;
  }
  /// Fetch waits: on an I-line fill, or on the core's branch redirect.
  [[nodiscard]] bool fetch_blocked() const {
    return now_ < fetch_ready_ || self().redirecting();
  }
  [[nodiscard]] static bool is_mem(workload::InstKind kind) {
    return kind == workload::InstKind::Load ||
           kind == workload::InstKind::Store;
  }

  /// Predict the branch being dispatched (record idx_, op byte `op`),
  /// train the bimodal table and the BTB on its outcome and count it.
  /// Returns whether the prediction was right.
  [[gnu::always_inline]] inline bool predict_branch(Pc pc, std::uint8_t op);

  /// Charge `n` cycles in which nothing dispatched to one cause: ROB
  /// full first, then LSQ full, then a blocked fetch.
  void charge_stall(bool rob, bool lsq, bool fetch, Cycle n) {
    if (rob)
      res_.rob_full_stall_cycles += n;
    else if (lsq)
      res_.lsq_full_stall_cycles += n;
    else if (fetch)
      res_.fetch_stall_cycles += n;
  }

  /// Hook default: a resumed cycle needs no core-side work.
  void resume_cycle() {}

  CoreConfig cfg_;
  BimodalPredictor bp_;
  Btb btb_;
  unsigned line_shift_ = 0;

  /// Occupancy the front end gates dispatch on; the core's ROB keeps it.
  unsigned rob_count_ = 0;
  unsigned lsq_count_ = 0;

  // --- per-run state (reset by bind) ---------------------------------
  workload::TraceSource* trace_ = nullptr;
  workload::TraceCursor* cursor_ = nullptr;  ///< non-null in arena mode
  /// The arena's columns (idx_ absolute) or window_'s (idx_ in [0, len)).
  workload::ColumnView view_;
  std::size_t idx_ = 0;
  std::size_t win_end_ = 0;

  std::uint64_t dispatched_ = 0;
  std::uint64_t pause_at_ = 0;  ///< 0 = no pause requested
  CoreResult res_;
  CoreResult window_snapshot_;
  Cycle window_start_ = 0;
  Cycle now_ = 0;
  Cycle cycle_limit_ = 0;  ///< livelock guard, recomputed per segment
  Cycle fetch_ready_ = 0;
  Cycle redirect_until_ = 0;
  Addr cur_fetch_line_ = kNoLine;

  // Mid-cycle pause state (valid while mid_cycle_).
  bool mid_cycle_ = false;
  bool cycle_trace_active_ = false;
  bool was_rob_full_ = false;
  bool fetch_stalled_ = false;
  bool lsq_blocked_ = false;
  unsigned slots_ = 0;

  /// Stream mode's staging window, last: arena mode never touches it.
  FetchWindow window_;

 private:
  // Only Core derives from Pipeline<Core>.
  friend Core;
  explicit Pipeline(const CoreConfig& cfg);
  /// The whole machine, trace binding included; rebind() then retargets
  /// the copy's trace.
  Pipeline(const Pipeline&) = default;

  Core& self() { return static_cast<Core&>(*this); }
  const Core& self() const { return static_cast<const Core&>(*this); }

  [[nodiscard]] bool have_rec() const { return idx_ < win_end_; }
  void refill_stream();
  void advance();
  /// Arena mode: publish idx_ back into the cursor so a paused engine's
  /// trace position is observable (snapshots clone the cursor at pos()).
  void sync_cursor();
  /// Livelock guard for a segment that dispatches up to `target` in
  /// total: the model must always make forward progress.
  void set_cycle_limit(std::uint64_t target) {
    cycle_limit_ = now_ + (target - dispatched_ + 1024) * 512 + 10'000'000ULL;
  }

  /// Simulate one cycle (or resume the paused one). Returns false when
  /// the trace is exhausted and the pipeline has drained. Pauses
  /// mid-cycle (mid_cycle_ set, returns true) when dispatched_ reaches
  /// pause_at_.
  bool cycle(std::uint64_t limit);
  /// The cycle's fetch/dispatch stage; true when it paused at pause_at_.
  [[gnu::always_inline]] inline bool dispatch(std::uint64_t limit);
};

template <typename Core>
Pipeline<Core>::Pipeline(const CoreConfig& cfg)
    : cfg_(cfg), bp_(cfg.bimodal), btb_(cfg.btb) {
  PPF_CHECK(cfg_.width >= 1);
  PPF_CHECK(cfg_.rob_entries >= cfg_.width);
  PPF_CHECK(cfg_.lsq_entries >= 1);
  for (unsigned v = cfg_.ifetch_line_bytes; v > 1; v >>= 1) ++line_shift_;
}

// ppf:cold — stream-mode refill goes through the virtual TraceSource; it
// runs once per kFetchBatch records, never per instruction.
template <typename Core>
void Pipeline<Core>::refill_stream() {
  window_.refill(*trace_);
  idx_ = 0;
  win_end_ = window_.len;
}
// ppf:hot

template <typename Core>
void Pipeline<Core>::advance() {
  ++idx_;
  if (cursor_ == nullptr && idx_ >= win_end_ && !window_.eof) {
    refill_stream();
  }
}

template <typename Core>
void Pipeline<Core>::sync_cursor() {
  if (cursor_ != nullptr) cursor_->seek(idx_);
}

template <typename Core>
void Pipeline<Core>::bind(workload::TraceSource& trace) {
  trace_ = &trace;
  cursor_ = dynamic_cast<workload::TraceCursor*>(&trace);
  if (cursor_ != nullptr) {
    // Decode straight off the shared arena; the cursor is only touched
    // again at pause/finish sync.
    view_ = cursor_->arena()->view();
    idx_ = cursor_->pos();
    win_end_ = cursor_->arena()->size();
  } else {
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
  cur_fetch_line_ = kNoLine;
  mid_cycle_ = false;
}

template <typename Core>
void Pipeline<Core>::rebind(workload::TraceSource& trace) {
  set_heartbeat(nullptr);  // the caller rewires it per clone
  trace_ = &trace;
  if (cursor_ != nullptr) {
    cursor_ = dynamic_cast<workload::TraceCursor*>(&trace);
    PPF_CHECK_MSG(cursor_ != nullptr,
                  "arena-bound clone requires a TraceCursor");
    view_ = cursor_->arena()->view();
    win_end_ = cursor_->arena()->size();
    PPF_CHECK_MSG(cursor_->pos() == idx_ && idx_ <= win_end_,
                  "clone cursor mispositioned");
  } else {
    // The staging window was copied with the machine; decode must read
    // *our* copy. End of trace is found again by reading `trace`, not
    // inherited.
    view_ = window_.records.columns();
    window_.eof = false;
    if (!have_rec()) refill_stream();
  }
}

template <typename Core>
void Pipeline<Core>::begin_window() {
  window_snapshot_ = res_;
  window_start_ = now_;
}

template <typename Core>
bool Pipeline<Core>::predict_branch(Pc pc, std::uint8_t op) {
  ++res_.branches;
  const bool taken = (op & workload::kOpTaken) != 0;
  const Addr target = view_.operand[idx_];
  const bool pred_taken = bp_.predict(pc);
  const auto pred_target = btb_.lookup(pc);
  bool correct = pred_taken == taken;
  if (correct && taken) {
    correct = pred_target.has_value() && *pred_target == target;
  }
  bp_.update(pc, taken);
  if (taken) {
    btb_.update(pc, target);
    // Control transfer: the next line fetched is the target's.
    cur_fetch_line_ = kNoLine;
  }
  bp_.note_outcome(correct);
  if (!correct) ++res_.mispredictions;
  return correct;
}

template <typename Core>
bool Pipeline<Core>::dispatch(std::uint64_t limit) {
  while (slots_ > 0 && have_rec() && dispatched_ < limit) {
    if (fetch_blocked()) {
      fetch_stalled_ = true;
      break;
    }
    if (rob_full()) break;
    const Pc pc = view_.pc[idx_];

    // Instruction fetch: crossing into a new I-line probes the L1I.
    const Addr line = pc >> line_shift_;
    if (line != cur_fetch_line_) {
      const Cycle ready = self().inst_memory().fetch(now_, pc);
      cur_fetch_line_ = line;
      if (ready > now_) {
        fetch_ready_ = ready;
        break;
      }
    }

    const std::uint8_t op = view_.op[idx_];
    const workload::InstKind kind = workload::op_kind(op);
    const bool mem = is_mem(kind);
    if (mem && lsq_full()) {
      lsq_blocked_ = true;
      break;
    }

    self().dispatch_one(pc, op, kind, mem);
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
    if (self().redirecting()) break;  // stop after a mispredicted branch
  }
  return false;
}

template <typename Core>
bool Pipeline<Core>::cycle(std::uint64_t limit) {
  heartbeat_tick(dispatched_);
  if (!mid_cycle_) {
    cycle_trace_active_ = have_rec() && dispatched_ < limit;
    if (!cycle_trace_active_ && rob_count_ == 0) return false;
    PPF_CHECK_MSG(now_ < cycle_limit_, "timing model livelock");
    self().open_cycle();
    was_rob_full_ = rob_full();
    fetch_stalled_ = false;
    lsq_blocked_ = false;
    slots_ = cfg_.width;
  } else {
    mid_cycle_ = false;
    self().resume_cycle();
  }

  if (dispatch(limit)) return true;
  if (cycle_trace_active_ && slots_ == cfg_.width) {
    charge_stall(was_rob_full_, lsq_blocked_, fetch_stalled_, 1);
  }
  self().close_cycle();
  ++now_;
  return true;
}

template <typename Core>
void Pipeline<Core>::run_until_dispatched(std::uint64_t target) {
  PPF_CHECK(trace_ != nullptr);
  if (dispatched_ >= target) return;
  set_cycle_limit(target);
  pause_at_ = target;
  while (!mid_cycle_ && cycle(target)) {
  }
  pause_at_ = 0;
  sync_cursor();
}

template <typename Core>
CoreResult Pipeline<Core>::finish(std::uint64_t dispatch_limit) {
  PPF_CHECK(trace_ != nullptr);
  PPF_CHECK(dispatch_limit >= dispatched_);
  set_cycle_limit(dispatch_limit);
  while (cycle(dispatch_limit)) {
  }
  sync_cursor();
  CoreResult out = res_;
  subtract_window(out, window_snapshot_);
  out.cycles = now_ - window_start_;
  return out;
}
// ppf:cold

template <typename Core>
void Pipeline<Core>::register_obs(obs::MetricRegistry& reg) const {
  register_core_counters(reg, res_);
}

template <typename Core>
void Pipeline<Core>::register_checks(check::CheckRegistry& reg) const {
  reg.add("core", [this](check::CheckContext& ctx) {
    self().check_invariants(ctx);
    ctx.require(lsq_count_ <= cfg_.lsq_entries && lsq_count_ <= rob_count_,
                "core.lsq_bound", [&] {
                  return "lsq=" + std::to_string(lsq_count_) + " capacity=" +
                         std::to_string(cfg_.lsq_entries) + " rob=" +
                         std::to_string(rob_count_);
                });
    const std::size_t storage =
        cursor_ != nullptr ? cursor_->arena()->size() : kFetchBatch;
    const bool window_ok =
        idx_ <= win_end_ && (cursor_ != nullptr ? win_end_ == storage
                                                : win_end_ <= storage);
    ctx.require(window_ok, "core.fetch_buffer", [&] {
      return "idx=" + std::to_string(idx_) + " end=" +
             std::to_string(win_end_) + " arena=" +
             (cursor_ != nullptr ? std::to_string(storage) : "stream");
    });
  });
}

}  // namespace ppf::core
