// Register-dataflow out-of-order core.
//
// Where OooCore approximates dependences statistically, this model
// builds them from the trace's architectural registers: every
// instruction waits for its source registers' producers, loads issue
// out of order as their addresses become ready (port-limited), and a
// mispredicted branch redirects the front end only when its sources
// resolve. It is the higher-fidelity (and slower) of the two timing
// models; select it with SimConfig::core_model = CoreModel::Dataflow.
//
// Scheduling is implemented with a producer/consumer wakeup graph: an
// instruction whose producer's completion time is still unknown (a load
// waiting for a port or for its address) parks on that producer and is
// re-evaluated when the producer's time materialises.
//
// All run state lives in members so a run can pause at the warmup
// boundary and resume (or be cloned and resumed per filter variant) —
// see core/engine.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/branch_predictor.hpp"
#include "core/btb.hpp"
#include "core/engine.hpp"
#include "core/memory_iface.hpp"
#include "workload/trace.hpp"

namespace ppf::core {

class DataflowCore final : public CoreEngine {
 public:
  DataflowCore(CoreConfig cfg, DataMemory& dmem, InstMemory& imem);
  /// Rebinding copy: duplicate `other` (typically paused at the warmup
  /// boundary) against a different memory system and trace. The caller
  /// positions `trace` at the same record offset as other's trace.
  DataflowCore(const DataflowCore& other, DataMemory& dmem, InstMemory& imem,
               workload::TraceSource& trace);

  void bind(workload::TraceSource& trace) override;
  void run_until_dispatched(std::uint64_t target) override;
  void begin_window() override;
  CoreResult finish(std::uint64_t dispatch_limit) override;
  [[nodiscard]] std::uint64_t dispatched() const override {
    return dispatched_;
  }
  [[nodiscard]] std::unique_ptr<CoreEngine> clone_rebound(
      DataMemory& dmem, InstMemory& imem,
      workload::TraceSource& trace) const override;
  void register_obs(obs::MetricRegistry& reg) const override;
  void register_checks(check::CheckRegistry& reg) const override;

  [[nodiscard]] const BimodalPredictor& predictor() const { return bp_; }

 private:
  static constexpr Cycle kUnknown = std::numeric_limits<Cycle>::max();
  static constexpr std::size_t kNumRegs = 32;

  struct RobEntry {
    Cycle done = kUnknown;   ///< completion; kUnknown while unresolved
    bool is_mem = false;
  };

  /// A load/store whose address register is ready, waiting for a port.
  struct ReadyMem {
    std::uint64_t seq;
    Pc pc;
    Addr addr;
    bool is_store;
    Cycle addr_ready;
  };

  /// A load/store whose address register is NOT yet ready.
  struct WaitingMem {
    std::uint64_t seq;
    Pc pc;
    Addr addr;
    bool is_store;
    std::uint64_t producer_seq;  ///< rob seq computing the address
    std::uint8_t other_src;      ///< second source register, if any
  };

  /// A non-memory instruction parked on an unresolved producer.
  struct WaitingAlu {
    std::uint64_t seq;
    std::uint64_t producer_seq;
    std::uint8_t dst;
    Cycle other_ready;  ///< readiness of the already-resolved source
    bool is_branch;
    bool mispredicted;
  };

  RobEntry& rob_at(std::uint64_t seq);
  [[nodiscard]] bool rob_full() const { return rob_count_ == cfg_.rob_entries; }
  std::uint64_t alloc_rob(bool is_mem);
  void retire(Cycle now);
  void issue_ready_mem(Cycle now);
  /// Producer `seq` now completes at `done`: wake its dependents.
  void resolve(std::uint64_t seq, Cycle done, Cycle now);
  void complete_alu(const WaitingAlu& w, Cycle src_ready, Cycle now);

  /// Per-register state: either a ready time, or the producing seq.
  struct RegState {
    Cycle ready = 0;
    std::uint64_t producer;  ///< kNoProducer = value ready
  };
  [[nodiscard]] RegState read_src(std::uint8_t r) const;

  // Fetch-window plumbing (batched trace consumption).
  [[nodiscard]] bool have_rec() const { return win_pos_ < window_.len; }
  void refill();
  void advance();

  /// Simulate one cycle (or resume the paused one). Returns false when
  /// the trace is exhausted and the pipeline has drained. Pauses
  /// mid-cycle (mid_cycle_ set, returns true) when dispatched_ reaches
  /// pause_at_.
  bool cycle(std::uint64_t limit);

  /// The whole machine, memory binding and trace included; the rebinding
  /// copy then rebinds those.
  DataflowCore(const DataflowCore&) = default;

  CoreConfig cfg_;
  DataMemory* dmem_;
  InstMemory* imem_;
  BimodalPredictor bp_;
  Btb btb_;
  unsigned line_shift_ = 0;

  std::vector<RobEntry> rob_;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t rob_next_seq_ = 0;
  unsigned rob_count_ = 0;
  unsigned lsq_count_ = 0;

  static constexpr std::uint64_t kNoProducer =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<RegState> regs_{kNumRegs, RegState{0, kNoProducer}};

  std::deque<ReadyMem> ready_mem_;
  std::vector<WaitingMem> waiting_mem_;
  std::vector<WaitingAlu> waiting_alu_;

  /// Mispredicted branch whose resolve time is still unknown.
  bool redirect_pending_ = false;
  std::uint64_t redirect_seq_ = 0;
  Cycle redirect_until_ = 0;

  // --- per-run state (reset by bind) ---------------------------------
  workload::TraceSource* trace_ = nullptr;
  FetchWindow window_;
  std::size_t win_pos_ = 0;

  std::uint64_t dispatched_ = 0;
  std::uint64_t pause_at_ = 0;  ///< 0 = no pause requested
  CoreResult res_;
  CoreResult window_snapshot_;
  Cycle window_start_ = 0;
  Cycle now_ = 0;
  Cycle cycle_limit_ = 0;  ///< livelock guard, recomputed per segment
  Cycle fetch_ready_ = 0;
  Addr cur_fetch_line_ = std::numeric_limits<Addr>::max();

  // Mid-cycle pause state (valid while mid_cycle_).
  bool mid_cycle_ = false;
  bool cycle_trace_active_ = false;
  bool was_rob_full_ = false;
  bool fetch_stalled_ = false;
  bool lsq_blocked_ = false;
  unsigned slots_ = 0;
};

}  // namespace ppf::core
