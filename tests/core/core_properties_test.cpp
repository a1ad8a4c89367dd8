// Property sweeps over the timing model: machine-width, ROB and LSQ
// scaling laws that must hold for any reasonable out-of-order model.
#include <gtest/gtest.h>

#include "core/ooo_core.hpp"
#include "workload/trace.hpp"

namespace ppf::core {
namespace {

using workload::InstKind;
using workload::TraceRecord;
using workload::VectorTrace;

class NullMemory : public DataMemory, public InstMemory {
 public:
  explicit NullMemory(Cycle lat) : lat_(lat) {}
  void begin_cycle(Cycle) override {}
  bool try_reserve_port(Cycle) override { return true; }
  Cycle demand_access(Cycle now, Pc, Addr, bool) override {
    return now + lat_;
  }
  void software_prefetch(Cycle, Pc, Addr) override {}
  void end_cycle(Cycle) override {}
  Cycle fetch(Cycle now, Pc) override { return now; }

 private:
  Cycle lat_;
};

std::vector<TraceRecord> op_trace(std::size_t n) {
  std::vector<TraceRecord> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(TraceRecord{0x400000 + i * 4, InstKind::Op, 0, 0, false});
  }
  return v;
}

std::vector<TraceRecord> load_heavy_trace(std::size_t n) {
  std::vector<TraceRecord> v;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      v.push_back(TraceRecord{0x400000 + i * 4, InstKind::Load,
                              0x1000 + (i % 64) * 64, 0, false});
    } else {
      v.push_back(TraceRecord{0x400000 + i * 4, InstKind::Op, 0, 0, false});
    }
  }
  return v;
}

double run_ipc(CoreConfig cfg, std::vector<TraceRecord> recs, Cycle lat) {
  NullMemory mem(lat);
  OooCore core(cfg, mem);
  VectorTrace t(std::move(recs));
  const CoreResult r = core.run(t, 1'000'000);
  return r.ipc();
}

class WidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthSweep, IpcNeverExceedsWidth) {
  CoreConfig cfg;
  cfg.width = GetParam();
  cfg.rob_entries = std::max(128u, cfg.width);
  cfg.dep_on_load_prob = 0.0;
  EXPECT_LE(run_ipc(cfg, op_trace(4000), 1),
            static_cast<double>(GetParam()) + 1e-9);
}

TEST_P(WidthSweep, OpThroughputApproachesWidth) {
  CoreConfig cfg;
  cfg.width = GetParam();
  cfg.rob_entries = std::max(128u, cfg.width);
  cfg.dep_on_load_prob = 0.0;
  EXPECT_GT(run_ipc(cfg, op_trace(8000), 1),
            0.9 * static_cast<double>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(CoreProperties, WiderMachinesAreNotSlower) {
  double prev = 0.0;
  for (unsigned w : {1u, 2u, 4u, 8u}) {
    CoreConfig cfg;
    cfg.width = w;
    cfg.dep_on_load_prob = 0.0;
    const double ipc = run_ipc(cfg, load_heavy_trace(8000), 4);
    EXPECT_GE(ipc, prev * 0.99) << "width " << w;
    prev = ipc;
  }
}

TEST(CoreProperties, BiggerRobToleratesLongerLatency) {
  // With long-latency independent loads, IPC should improve with ROB
  // size (more memory-level parallelism exposed).
  double prev = 0.0;
  for (unsigned rob : {16u, 32u, 64u, 128u}) {
    CoreConfig cfg;
    cfg.rob_entries = rob;
    cfg.dep_on_load_prob = 0.0;
    const double ipc = run_ipc(cfg, load_heavy_trace(8000), 100);
    EXPECT_GE(ipc, prev * 0.99) << "rob " << rob;
    prev = ipc;
  }
  EXPECT_GT(prev, 0.5);  // 128-entry ROB hides most of 100 cycles
}

TEST(CoreProperties, TinyLsqThrottlesMemoryParallelism) {
  CoreConfig small;
  small.lsq_entries = 2;
  small.dep_on_load_prob = 0.0;
  CoreConfig big;
  big.lsq_entries = 64;
  big.dep_on_load_prob = 0.0;
  const double ipc_small = run_ipc(small, load_heavy_trace(8000), 100);
  const double ipc_big = run_ipc(big, load_heavy_trace(8000), 100);
  EXPECT_GT(ipc_big, ipc_small * 2);
}

TEST(CoreProperties, LoadDependentBranchesResolveLate) {
  // dep_on_load_prob models consumers of load data. Retirement is
  // in-order, so a delayed plain op changes nothing — the observable
  // cost is a *branch* that cannot resolve (and redirect on a
  // misprediction) until the load returns.
  auto trace = [] {
    std::vector<TraceRecord> v;
    Xorshift rng(3);
    for (int i = 0; i < 3000; ++i) {
      v.push_back(TraceRecord{0x400000, InstKind::Load,
                              0x1000 + static_cast<Addr>(i % 64) * 64, 0,
                              false});
      TraceRecord br{0x400004, InstKind::Branch, 0, 0x400100, false};
      br.taken = rng.chance(0.5);  // unlearnable: frequent redirects
      v.push_back(br);
    }
    return v;
  };
  CoreConfig base;
  base.dep_on_load_prob = 0.0;
  const double free_ipc = run_ipc(base, trace(), 30);
  base.dep_on_load_prob = 0.9;
  const double dep_ipc = run_ipc(base, trace(), 30);
  EXPECT_LT(dep_ipc, free_ipc * 0.8);
}

TEST(CoreProperties, MispredictPenaltyScalesCost) {
  auto mispredicting_trace = [] {
    std::vector<TraceRecord> v;
    Xorshift rng(3);
    for (int i = 0; i < 4000; ++i) {
      TraceRecord br{0x400000, InstKind::Branch, 0, 0x400100, false};
      br.taken = rng.chance(0.5);  // unlearnable
      v.push_back(br);
      v.push_back(TraceRecord{0x400004, InstKind::Op, 0, 0, false});
    }
    return v;
  };
  CoreConfig cheap;
  cheap.mispredict_penalty = 2;
  cheap.dep_on_load_prob = 0.0;
  CoreConfig pricey;
  pricey.mispredict_penalty = 20;
  pricey.dep_on_load_prob = 0.0;
  const double fast = run_ipc(cheap, mispredicting_trace(), 1);
  const double slow = run_ipc(pricey, mispredicting_trace(), 1);
  EXPECT_GT(fast, slow * 1.5);
}

}  // namespace
}  // namespace ppf::core
