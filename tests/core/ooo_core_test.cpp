#include "core/ooo_core.hpp"

#include <gtest/gtest.h>

#include "workload/trace.hpp"

namespace ppf::core {
namespace {

using workload::InstKind;
using workload::TraceRecord;
using workload::VectorTrace;

/// Perfect memory: every access completes after a fixed latency; fetch
/// never stalls; unlimited ports.
class FixedLatencyMemory : public DataMemory, public InstMemory {
 public:
  explicit FixedLatencyMemory(Cycle load_latency = 1)
      : load_latency_(load_latency) {}

  void begin_cycle(Cycle) override {}
  bool try_reserve_port(Cycle) override { return true; }
  Cycle demand_access(Cycle now, Pc, Addr, bool) override {
    ++accesses;
    return now + load_latency_;
  }
  void software_prefetch(Cycle, Pc, Addr addr) override {
    ++sw_prefetches;
    last_sw_prefetch_addr = addr;
  }
  void end_cycle(Cycle) override {}
  Cycle fetch(Cycle now, Pc) override { return now; }

  int accesses = 0;
  int sw_prefetches = 0;
  Addr last_sw_prefetch_addr = 0;

 private:
  Cycle load_latency_;
};

/// Memory with a fixed per-cycle port budget (for contention tests).
class PortedMemory : public FixedLatencyMemory {
 public:
  PortedMemory(unsigned ports, Cycle lat)
      : FixedLatencyMemory(lat), ports_(ports) {}
  void begin_cycle(Cycle) override { left_ = ports_; }
  bool try_reserve_port(Cycle) override {
    if (left_ == 0) return false;
    --left_;
    return true;
  }

 private:
  unsigned ports_;
  unsigned left_ = 0;
};

CoreConfig quiet_core() {
  CoreConfig c;
  c.dep_on_load_prob = 0.0;  // deterministic timing for unit tests
  return c;
}

std::vector<TraceRecord> ops(std::size_t n, Pc base = 0x400000) {
  std::vector<TraceRecord> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(TraceRecord{base + i * 4, InstKind::Op, 0, 0, false});
  }
  return v;
}

TEST(OooCore, PureOpsRetireAtFullWidth) {
  FixedLatencyMemory mem;
  OooCore core(quiet_core(), mem);
  VectorTrace t(ops(800));
  const CoreResult r = core.run(t, 800);
  EXPECT_EQ(r.instructions, 800u);
  // 8-wide machine: about 100 cycles plus ramp-up.
  EXPECT_LE(r.cycles, 110u);
  EXPECT_GT(r.ipc(), 7.0);
}

TEST(OooCore, InstructionCapRespected) {
  FixedLatencyMemory mem;
  OooCore core(quiet_core(), mem);
  VectorTrace t(ops(500));
  const CoreResult r = core.run(t, 100);
  EXPECT_EQ(r.instructions, 100u);
}

TEST(OooCore, LongLatencyLoadBlocksRetirementViaRob) {
  FixedLatencyMemory mem(/*load_latency=*/200);
  CoreConfig cfg = quiet_core();
  cfg.rob_entries = 16;
  OooCore core(cfg, mem);
  std::vector<TraceRecord> v;
  v.push_back(TraceRecord{0x400000, InstKind::Load, 0x1000, 0, false});
  auto rest = ops(100, 0x400004);
  v.insert(v.end(), rest.begin(), rest.end());
  VectorTrace t(v);
  const CoreResult r = core.run(t, v.size());
  // The load sits at the ROB head for 200 cycles; only 15 more entries
  // fit behind it, so the whole run takes at least ~200 cycles.
  EXPECT_GE(r.cycles, 200u);
  EXPECT_GT(r.rob_full_stall_cycles, 100u);
}

TEST(OooCore, SerialLoadsChainTheirLatencies) {
  FixedLatencyMemory mem(/*load_latency=*/50);
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v;
  for (int i = 0; i < 4; ++i) {
    TraceRecord r{0x400000 + static_cast<Pc>(i) * 4, InstKind::Load,
                  0x1000, 0, false};
    r.serial = true;
    v.push_back(r);
  }
  VectorTrace t(v);
  const CoreResult r = core.run(t, v.size());
  // Four dependent loads of 50 cycles each cannot overlap.
  EXPECT_GE(r.cycles, 200u);
}

TEST(OooCore, IndependentLoadsOverlap) {
  FixedLatencyMemory mem(/*load_latency=*/50);
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(TraceRecord{0x400000 + static_cast<Pc>(i) * 4, InstKind::Load,
                            0x1000 + static_cast<Addr>(i) * 64, 0, false});
  }
  VectorTrace t(v);
  const CoreResult r = core.run(t, v.size());
  EXPECT_LT(r.cycles, 80u);  // all four in flight together
}

TEST(OooCore, MispredictedBranchesCostCycles) {
  FixedLatencyMemory mem;
  CoreConfig cfg = quiet_core();
  // Branch at the same PC alternating taken/not-taken: bimodal cannot
  // track it, so roughly half mispredict.
  auto make_trace = [](bool alternate) {
    std::vector<TraceRecord> v;
    for (int i = 0; i < 400; ++i) {
      TraceRecord op{0x400000, InstKind::Op, 0, 0, false};
      v.push_back(op);
      TraceRecord br{0x400004, InstKind::Branch, 0, 0x400000, false};
      br.taken = alternate ? (i % 2 == 0) : true;
      v.push_back(br);
    }
    return v;
  };
  OooCore stable_core(cfg, mem);
  VectorTrace stable(make_trace(false));
  const CoreResult rs = stable_core.run(stable, 800);

  FixedLatencyMemory mem2;
  OooCore flaky_core(cfg, mem2);
  VectorTrace flaky(make_trace(true));
  const CoreResult rf = flaky_core.run(flaky, 800);

  EXPECT_LT(rs.mispredictions, 20u);
  EXPECT_GT(rf.mispredictions, 150u);
  EXPECT_GT(rf.cycles, rs.cycles + 500);
}

TEST(OooCore, SoftwarePrefetchReachesMemoryWithoutBlocking) {
  FixedLatencyMemory mem;
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v = ops(4);
  v.push_back(TraceRecord{0x400010, InstKind::SwPrefetch, 0xABC0, 0, false});
  auto rest = ops(4, 0x400014);
  v.insert(v.end(), rest.begin(), rest.end());
  VectorTrace t(v);
  const CoreResult r = core.run(t, v.size());
  EXPECT_EQ(r.sw_prefetches, 1u);
  EXPECT_EQ(mem.sw_prefetches, 1);
  EXPECT_EQ(mem.last_sw_prefetch_addr, 0xABC0u);
  EXPECT_LE(r.cycles, 10u);  // non-blocking
}

TEST(OooCore, PortStarvationQueuesAccesses) {
  PortedMemory mem(/*ports=*/1, /*lat=*/1);
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v;
  for (int i = 0; i < 64; ++i) {
    v.push_back(TraceRecord{0x400000 + static_cast<Pc>(i) * 4, InstKind::Load,
                            static_cast<Addr>(i) * 64, 0, false});
  }
  VectorTrace t(v);
  const CoreResult r = core.run(t, v.size());
  // One port: at most one load issues per cycle.
  EXPECT_GE(r.cycles, 64u);
  EXPECT_EQ(mem.accesses, 64);
}

TEST(OooCore, CountsInstructionMix) {
  FixedLatencyMemory mem;
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v;
  v.push_back(TraceRecord{0x400000, InstKind::Load, 0x10, 0, false});
  v.push_back(TraceRecord{0x400004, InstKind::Store, 0x20, 0, false});
  v.push_back(TraceRecord{0x400008, InstKind::Op, 0, 0, false});
  v.push_back(TraceRecord{0x40000C, InstKind::Branch, 0, 0x400000, false});
  VectorTrace t(v);
  const CoreResult r = core.run(t, 4);
  EXPECT_EQ(r.loads, 1u);
  EXPECT_EQ(r.stores, 1u);
  EXPECT_EQ(r.branches, 1u);
  EXPECT_EQ(r.instructions, 4u);
}

TEST(OooCore, WarmupWindowIsSubtracted) {
  FixedLatencyMemory mem;
  OooCore core(quiet_core(), mem);
  VectorTrace t(ops(1000));
  bool callback_fired = false;
  const CoreResult r =
      core.run(t, 1000, 400, [&callback_fired] { callback_fired = true; });
  EXPECT_TRUE(callback_fired);
  // Only the post-warmup ~600 instructions are reported.
  EXPECT_LE(r.instructions, 620u);
  EXPECT_GE(r.instructions, 560u);
  EXPECT_LT(r.cycles, 110u);
}

TEST(OooCore, DrainsCleanlyOnTraceExhaustion) {
  FixedLatencyMemory mem(30);
  OooCore core(quiet_core(), mem);
  std::vector<TraceRecord> v{
      TraceRecord{0x400000, InstKind::Load, 0x40, 0, false}};
  VectorTrace t(v);
  const CoreResult r = core.run(t, 100);  // cap above trace length
  EXPECT_EQ(r.instructions, 1u);
  EXPECT_GE(r.cycles, 30u);  // waited for the load to come back
}

}  // namespace
}  // namespace ppf::core
