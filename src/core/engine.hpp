// Segmented core-execution interface.
//
// Both timing models (OooCore, DataflowCore) are one machine: the
// front end, the cycle driver and this API are core::Pipeline's
// (core/pipeline.hpp), and each model supplies only its back end. The
// driver binds a trace, simulates cycles and dispatches up to `width`
// instructions per cycle. The warmup-snapshot optimisation needs to
// *pause* a core exactly at the warmup boundary (mid-cycle, right after
// the boundary instruction dispatches — the point at which run() fires
// its warmup callback), clone the paused machine per filter variant, and
// resume each clone independently. The segmented API exposes those
// phases:
//
//   bind(trace)                  reset per-run state, prime the fetch buffer
//   run_until_dispatched(n)      simulate until n instructions dispatched,
//                                pausing mid-cycle at the boundary
//   begin_window()               start the measurement window here
//   finish(limit)                run to pipeline drain (dispatch capped at
//                                `limit` total) and return window counters
//   clone_rebound(...)           copy of the paused machine wired to a
//                                different memory system and trace cursor
//
// The one-shot run() used everywhere else is a thin wrapper, so the cold
// path and the snapshot path execute the identical cycle loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hpp"
#include "core/branch_predictor.hpp"
#include "core/btb.hpp"
#include "core/memory_iface.hpp"
#include "workload/trace.hpp"

namespace ppf::obs {
class MetricRegistry;
}
namespace ppf::check {
class CheckRegistry;
}

namespace ppf::core {

struct CoreConfig {
  unsigned width = 8;               ///< dispatch/retire width
  unsigned rob_entries = 128;
  unsigned lsq_entries = 64;
  unsigned exec_latency = 1;        ///< simple-op execution latency
  unsigned mispredict_penalty = 8;  ///< redirect bubble after resolve
  unsigned inst_bytes = 4;          ///< Alpha-style fixed-size instructions
  unsigned ifetch_line_bytes = 32;  ///< L1 I-line granularity for fetch
  /// Probability that an instruction consumes the youngest in-flight
  /// load's result and therefore cannot complete before it.
  double dep_on_load_prob = 0.25;
  std::uint64_t seed = 42;

  BimodalConfig bimodal;
  BtbConfig btb;
};

/// Per-stage-kernel accounting for the occupancy model's cycle loop
/// (OooCore; DataflowCore leaves it zero). The record counts are
/// deterministic: OooCore increments them at fixed semantic points (an
/// entry retired, a memory op issued to the L1, an instruction
/// dispatched, a hierarchy end-of-cycle step), and the golden corpus pins
/// them through the obs signature. The ns fields are *sampled wall-clock
/// estimates*; they are telemetry, never part of deterministic result
/// payloads or signatures.
struct StageStats {
  std::uint64_t retire_records = 0;  ///< ROB entries retired
  std::uint64_t probe_records = 0;   ///< demand ops issued to the L1D
  std::uint64_t fetch_records = 0;   ///< instructions decoded + dispatched
  std::uint64_t memsys_records = 0;  ///< hierarchy end-of-cycle steps
  double retire_ns = 0.0;
  double probe_ns = 0.0;
  double fetch_ns = 0.0;
  double memsys_ns = 0.0;
};

struct CoreResult {
  Cycle cycles = 0;
  /// Instructions dispatched in the measurement window (every dispatched
  /// instruction also retires by the end of the run, so this equals the
  /// retired count for a whole run).
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t sw_prefetches = 0;
  std::uint64_t mispredictions = 0;
  std::uint64_t rob_full_stall_cycles = 0;
  std::uint64_t lsq_full_stall_cycles = 0;
  std::uint64_t fetch_stall_cycles = 0;
  StageStats stages;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

class CoreEngine {
 public:
  virtual ~CoreEngine() = default;

  /// One-shot convenience: run `trace` until `max_instructions` have been
  /// dispatched (warmup included) and the pipeline drains. When
  /// `warmup_instructions` > 0, `on_warmup_end` fires once right after
  /// the boundary instruction dispatches (so the memory system can reset
  /// its statistics) and the returned counters cover only the
  /// post-warmup window.
  CoreResult run(workload::TraceSource& trace, std::uint64_t max_instructions,
                 std::uint64_t warmup_instructions = 0,
                 const std::function<void()>& on_warmup_end = {});

  // --- segmented API (see file comment) ------------------------------

  virtual void bind(workload::TraceSource& trace) = 0;
  virtual void run_until_dispatched(std::uint64_t target) = 0;
  virtual void begin_window() = 0;
  virtual CoreResult finish(std::uint64_t dispatch_limit) = 0;
  [[nodiscard]] virtual std::uint64_t dispatched() const = 0;

  /// Copy of this (typically paused) core driving `dmem`/`imem` and
  /// fetching from `trace`, which the caller must position at the same
  /// record offset as the source core's trace. `trace` may run past the
  /// point where the source's trace ended (a longer arena of the same
  /// records); the clone reads on to its end.
  [[nodiscard]] virtual std::unique_ptr<CoreEngine> clone_rebound(
      DataMemory& dmem, InstMemory& imem,
      workload::TraceSource& trace) const = 0;

  /// Publish the cumulative dispatched-instruction count to `slot` every
  /// `every` instructions (relaxed store from the cycle loop; a monitor
  /// thread may read it concurrently). Pass nullptr to disable. Clones
  /// made by clone_rebound do NOT inherit the slot — the caller rewires
  /// it per clone.
  void set_heartbeat(std::atomic<std::uint64_t>* slot,
                     std::uint64_t every = std::uint64_t{1} << 17) {
    hb_slot_ = slot;
    hb_every_ = every == 0 ? 1 : every;
    hb_next_ = 0;
  }

  /// Register this core's window counters as `core.metric` (ppf::obs).
  /// Default registers nothing; core::Pipeline overrides.
  virtual void register_obs(obs::MetricRegistry& reg) const;

  /// Register this core's structural invariants under `core` (ppf::check).
  /// Default registers nothing; core::Pipeline overrides.
  virtual void register_checks(check::CheckRegistry& reg) const;

 protected:
  /// Call from the cycle loop with the cumulative dispatched count.
  void heartbeat_tick(std::uint64_t dispatched) {
    if (hb_slot_ != nullptr && dispatched >= hb_next_) {
      hb_slot_->store(dispatched, std::memory_order_relaxed);
      hb_next_ = dispatched + hb_every_;
    }
  }

  /// Shared register_obs body: registers the standard `core.*` counters
  /// reading from `res` (the engine's cumulative result record).
  static void register_core_counters(obs::MetricRegistry& reg,
                                     const CoreResult& res);

 private:
  std::atomic<std::uint64_t>* hb_slot_ = nullptr;
  std::uint64_t hb_every_ = std::uint64_t{1} << 17;
  std::uint64_t hb_next_ = 0;
};

/// Subtract the warmup-window counters so `res` covers only the
/// measurement window. Stage record counts are windowed like every other
/// counter; the sampled ns estimates stay cumulative (they answer "where
/// did this run's wall time go", warmup included).
void subtract_window(CoreResult& res, const CoreResult& snap);

}  // namespace ppf::core
