// ppf:hot
//
// Batched stage-kernel implementation of the occupancy timing model.
//
// BatchedCore is the engine=batched counterpart of core::OooCore
// (engine=reference). It simulates the *identical* machine — the same
// per-cycle stage order (MSHR/fill retire, cache-probe issue,
// fetch/dispatch, hierarchy end-of-cycle), the same RNG draw sequence,
// the same stall-attribution precedence, the same mid-cycle pause point
// at the warmup boundary — and is required to produce byte-identical
// SimResult and obs signatures (enforced by the
// diff.batched_vs_reference oracle across the config lattice).
//
// What it restructures is the *code*, not the model:
//
//   * Decode reads straight off the MaterializedTrace SoA columns
//     (pc/kind/addr/target/flags) through raw pointers, killing the
//     per-batch gather() into AoS TraceRecords and the per-record field
//     unpacking the reference engine pays. Non-arena sources fall back
//     to a kFetchBatch SoA staging window filled via next_batch, so the
//     inner loop is one shape either way.
//   * The memory system is held as a concrete sim::MemoryHierarchy
//     (final), so every begin_cycle/try_reserve_port/demand_access/
//     fetch/end_cycle call devirtualizes and the small ones inline.
//     ppf_lint rule hot-loop-no-virtual keeps it that way.
//   * The pending-memory queues are flat power-of-two rings instead of
//     std::deque (their depth is bounded by the ROB).
//   * Each stage kernel feeds the core.stage.* accounting: exact record
//     counts (mirrored by the reference engine so signatures agree) and
//     sampled wall-clock ns (batched only, telemetry only).
//
// Layering note: this lives in sim/, not core/, precisely because it
// names MemoryHierarchy. The core/ interfaces stay memory-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "core/branch_predictor.hpp"
#include "core/btb.hpp"
#include "core/engine.hpp"
#include "sim/memory_hierarchy.hpp"
#include "workload/materialized.hpp"
#include "workload/trace.hpp"

namespace ppf::sim {

class BatchedCore final : public core::CoreEngine {
 public:
  BatchedCore(core::CoreConfig cfg, MemoryHierarchy& mem);
  /// Rebinding copy: duplicate `other` (typically paused at the warmup
  /// boundary) against a different hierarchy and trace. The caller
  /// positions `trace` at the same record offset as other's trace; in
  /// arena mode `trace` may run over a longer arena than other's.
  BatchedCore(const BatchedCore& other, MemoryHierarchy& mem,
              workload::TraceSource& trace);

  void bind(workload::TraceSource& trace) override;
  void run_until_dispatched(std::uint64_t target) override;
  void begin_window() override;
  core::CoreResult finish(std::uint64_t dispatch_limit) override;
  [[nodiscard]] std::uint64_t dispatched() const override {
    return dispatched_;
  }
  /// Clones only onto another MemoryHierarchy (returns nullptr for any
  /// other DataMemory/InstMemory, and when dmem/imem are not the same
  /// hierarchy object) — the caller then falls back to the cold path.
  [[nodiscard]] std::unique_ptr<core::CoreEngine> clone_rebound(
      core::DataMemory& dmem, core::InstMemory& imem,
      workload::TraceSource& trace) const override;
  void register_obs(obs::MetricRegistry& reg) const override;
  void register_checks(check::CheckRegistry& reg) const override;

 private:
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

  /// Timed cycles are 1-in-kTimingSample; the measured ns are scaled by
  /// the sample period, so the stage ns fields are whole-run estimates.
  static constexpr std::uint64_t kTimingSample = 256;

  void do_issue(Cycle now, const PendingMem& p, bool serial);
  [[nodiscard]] bool rob_full() const {
    return rob_count_ == cfg_.rob_entries;
  }
  RobEntry& rob_at(std::uint64_t seq) { return rob_[seq & rob_mask_]; }
  [[nodiscard]] const RobEntry& rob_at(std::uint64_t seq) const {
    return rob_[seq & rob_mask_];
  }
  std::uint64_t alloc_rob(bool is_mem);
  void retire(Cycle now);
  void issue_pending(Cycle now);

  // Decode-window plumbing: view_ points either at the shared arena's
  // SoA columns (arena mode; idx_ is the absolute record index) or at
  // the staging window (stream mode; idx_ in [0, win_end_)).
  [[nodiscard]] bool have_rec() const { return idx_ < win_end_; }
  void refill_stream();
  void advance();
  /// Arena mode: publish idx_ back into the cursor so a paused engine's
  /// trace position is observable (snapshots clone the cursor at pos()).
  void sync_cursor();

  bool cycle(std::uint64_t limit);
  void fast_forward_stall();
  void copy_run_state(const BatchedCore& other);

  core::CoreConfig cfg_;
  MemoryHierarchy& mem_;
  core::BimodalPredictor bp_;
  core::Btb btb_;
  Xorshift rng_;
  unsigned line_shift_ = 0;

  std::uint64_t rob_mask_ = 0;
  std::vector<RobEntry> rob_;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t rob_next_seq_ = 0;
  unsigned rob_count_ = 0;
  unsigned lsq_count_ = 0;
  PendingRing pending_mem_;
  PendingRing pending_serial_;
  Cycle serial_chain_ready_ = 0;

  Cycle last_load_done_ = 0;
  bool last_load_known_ = true;

  // --- per-run state (reset by bind) ---------------------------------
  workload::TraceSource* trace_ = nullptr;
  workload::TraceCursor* cursor_ = nullptr;  ///< non-null in arena mode
  std::shared_ptr<const workload::MaterializedTrace> arena_;
  workload::MaterializedTrace::SoaView view_;
  std::size_t idx_ = 0;
  std::size_t win_end_ = 0;
  bool arena_mode_ = false;
  bool stream_eof_ = true;
  // Stream-mode staging window (SoA transpose of next_batch output).
  std::array<std::uint64_t, core::kFetchBatch> spc_{};
  std::array<std::uint8_t, core::kFetchBatch> skind_{};
  std::array<std::uint64_t, core::kFetchBatch> saddr_{};
  std::array<std::uint64_t, core::kFetchBatch> starget_{};
  std::array<std::uint8_t, core::kFetchBatch> sflags_{};

  std::uint64_t dispatched_ = 0;
  std::uint64_t pause_at_ = 0;  ///< 0 = no pause requested
  core::CoreResult res_;
  core::CoreResult window_snapshot_;
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

/// Engine factory honouring cfg.engine/cfg.core_model: the dataflow
/// model has a single implementation; the occupancy model dispatches to
/// BatchedCore (engine=batched) or core::OooCore (engine=reference).
[[nodiscard]] std::unique_ptr<core::CoreEngine> make_sim_engine(
    const SimConfig& cfg, MemoryHierarchy& mem);

}  // namespace ppf::sim
