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
// The front end, the cycle driver and the segmented CoreEngine API are
// core::Pipeline's (core/pipeline.hpp), shared with OooCore, so this
// model decodes an arena in place and pauses, clones and resumes exactly
// as the occupancy model does. This class is the back end: the ROB, and
// scheduling as a producer/consumer wakeup graph — an instruction whose
// producer's completion time is still unknown (a load waiting for a port
// or for its address) parks on that producer and is re-evaluated when
// the producer's time materialises. Its fetch also waits while a
// mispredicted branch is unresolved. It drives the abstract
// DataMemory/InstMemory, so any implementation plugs in.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/engine.hpp"
#include "core/memory_iface.hpp"
#include "core/pipeline.hpp"
#include "workload/trace.hpp"

namespace ppf::core {

class DataflowCore final : public Pipeline<DataflowCore> {
  friend Pipeline<DataflowCore>;

 public:
  DataflowCore(CoreConfig cfg, DataMemory& dmem, InstMemory& imem);
  /// Rebinding copy: duplicate `other` (typically paused at the warmup
  /// boundary) against a different memory system and trace. The caller
  /// positions `trace` at the same record offset as other's trace.
  DataflowCore(const DataflowCore& other, DataMemory& dmem, InstMemory& imem,
               workload::TraceSource& trace);

  [[nodiscard]] std::unique_ptr<CoreEngine> clone_rebound(
      DataMemory& dmem, InstMemory& imem,
      workload::TraceSource& trace) const override;

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
  };

  /// A non-memory instruction parked on an unresolved producer.
  struct WaitingAlu {
    std::uint64_t seq;
    std::uint64_t producer_seq;
    Cycle other_ready;  ///< readiness of the already-resolved source
    bool mispredicted;
  };

  // --- Pipeline hooks --------------------------------------------------
  InstMemory& inst_memory() { return *imem_; }
  /// A mispredicted branch blocks fetch from dispatch, before its resolve
  /// time (and so its redirect's end) is known.
  [[nodiscard]] bool redirecting() const {
    return redirect_pending_ || now_ < redirect_until_;
  }
  void open_cycle();
  void dispatch_one(Pc pc, std::uint8_t op, workload::InstKind kind,
                    bool is_mem);
  void close_cycle();
  void check_invariants(check::CheckContext& ctx) const;

  RobEntry& rob_at(std::uint64_t seq);
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

  /// The whole machine, memory binding and trace included; the rebinding
  /// copy then rebinds those.
  DataflowCore(const DataflowCore&) = default;

  DataMemory* dmem_;
  InstMemory* imem_;

  std::vector<RobEntry> rob_;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t rob_next_seq_ = 0;

  static constexpr std::uint64_t kNoProducer =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<RegState> regs_{kNumRegs, RegState{0, kNoProducer}};

  std::deque<ReadyMem> ready_mem_;
  std::vector<WaitingMem> waiting_mem_;
  std::vector<WaitingAlu> waiting_alu_;

  /// Mispredicted branch whose resolve time is still unknown.
  bool redirect_pending_ = false;
  std::uint64_t redirect_seq_ = 0;
};

extern template class Pipeline<DataflowCore>;

}  // namespace ppf::core
