// The optional hierarchy modes: victim cache, MSHR limits, prefetch-to-L2
// and the load-latency histogram, exercised through the full hierarchy.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/memory_hierarchy.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::sim {
namespace {

SimConfig quiet_cfg() {
  SimConfig cfg;
  cfg.prefetchers.clear();
  cfg.enable_sw_prefetch = false;
  return cfg;
}

TEST(HierarchyModes, VictimCacheCatchesConflictEviction) {
  SimConfig cfg = quiet_cfg();
  cfg.victim_cache_entries = 8;
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  const Cycle first = mem.demand_access(0, 0, 0x1000, false);
  // Conflict-evict 0x1000 (8KB direct-mapped).
  mem.begin_cycle(first + 1);
  (void)mem.demand_access(first + 1, 0, 0x1000 + 8 * 1024, false);
  // The re-reference is served by the victim cache at near-L1 latency.
  const Cycle t = first + 500;
  mem.begin_cycle(t);
  const Cycle back = mem.demand_access(t, 0, 0x1000, false);
  EXPECT_LE(back - t, 3u);
  ASSERT_NE(mem.victim_cache(), nullptr);
  EXPECT_EQ(mem.victim_cache()->hits(), 1u);
  EXPECT_TRUE(mem.l1d().contains(0x1000));  // reinstalled
}

TEST(HierarchyModes, VictimCachePreservesDirtyData) {
  SimConfig cfg = quiet_cfg();
  cfg.victim_cache_entries = 8;
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  (void)mem.demand_access(0, 0, 0x1000, true);  // store: dirty line
  mem.begin_cycle(400);
  (void)mem.demand_access(400, 0, 0x1000 + 8 * 1024, false);  // evict
  mem.begin_cycle(900);
  (void)mem.demand_access(900, 0, 0x1000, false);  // recall
  // Evicting the recalled line again must still write it back.
  mem.begin_cycle(1400);
  (void)mem.demand_access(1400, 0, 0x1000 + 16 * 1024, false);
  EXPECT_GE(mem.dram().writebacks(), 1u);
}

TEST(HierarchyModes, VictimCacheImprovesConflictHeavyIpc) {
  SimConfig with = quiet_cfg();
  with.victim_cache_entries = 16;
  with.max_instructions = 150'000;
  with.warmup_instructions = 50'000;
  SimConfig without = with;
  without.victim_cache_entries = 0;
  // em3d thrashes the direct-mapped L1: a victim cache must not hurt.
  const SimResult r_with = run_benchmark(with, "em3d");
  const SimResult r_without = run_benchmark(without, "em3d");
  EXPECT_GE(r_with.ipc(), r_without.ipc() * 0.98);
  EXPECT_GT(r_with.victim_hits, 0u);
}

TEST(HierarchyModes, VictimCacheTakesOnlyL1dVictims) {
  // Jouppi's victim cache holds the lines the L1D evicts, so over a whole
  // run it takes exactly as many records as the L1D evicts lines.
  struct Case {
    const char* bench;
    bool prefetch_buffer;
  };
  for (const Case c : {Case{"em3d", true}, Case{"gcc", false}}) {
    SimConfig cfg;
    cfg.victim_cache_entries = 16;
    cfg.use_prefetch_buffer = c.prefetch_buffer;
    cfg.filter = "none";
    cfg.max_instructions = 20'000;
    cfg.warmup_instructions = 0;
    MemoryHierarchy mem(cfg);
    const auto engine = make_sim_engine(cfg, mem);
    const auto trace = workload::make_benchmark(c.bench, cfg.seed);
    (void)engine->run(*trace, cfg.max_instructions);
    ASSERT_NE(mem.victim_cache(), nullptr);
    EXPECT_GT(mem.l1d().evictions(), 0u) << c.bench;
    EXPECT_EQ(mem.victim_cache()->inserts(), mem.l1d().evictions())
        << c.bench;
  }
}

TEST(HierarchyModes, MshrLimitStallsBursts) {
  SimConfig cfg = quiet_cfg();
  cfg.mshr_entries = 1;
  MemoryHierarchy mem(cfg);
  // Two independent cold misses in the same cycle: the second must wait
  // for the first fill's completion before even issuing to DRAM.
  mem.begin_cycle(0);
  const Cycle a = mem.demand_access(0, 0, 0x10000, false);
  const Cycle b = mem.demand_access(0, 0, 0x20000, false);
  EXPECT_GT(b, a + 100);  // serialised through the single MSHR
  EXPECT_GE(mem.mshr().stalls(), 1u);
}

TEST(HierarchyModes, UnlimitedMshrsOverlapMisses) {
  SimConfig cfg = quiet_cfg();
  cfg.mshr_entries = 0;
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  const Cycle a = mem.demand_access(0, 0, 0x10000, false);
  const Cycle b = mem.demand_access(0, 0, 0x20000, false);
  // Only bus serialisation separates them, not a full DRAM latency.
  EXPECT_LT(b, a + 100);
}

TEST(HierarchyModes, PrefetchToL2LeavesL1Untouched) {
  SimConfig cfg = quiet_cfg();
  cfg.enable_sw_prefetch = true;
  cfg.prefetch_to_l2 = true;
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  mem.software_prefetch(0, 0x400000, 0x2000);
  mem.end_cycle(0);
  EXPECT_FALSE(mem.l1d().contains(0x2000));
  EXPECT_TRUE(mem.l2().contains(0x2000));
  EXPECT_EQ(mem.classifier().issued().sw, 1u);
  // A later demand miss now hits in the L2 (fast) instead of memory.
  mem.begin_cycle(500);
  const Cycle done = mem.demand_access(500, 0, 0x2000, false);
  EXPECT_LT(done - 500, 30u);
}

TEST(HierarchyModes, PrefetchToL2ClassifiesViaL2Rib) {
  SimConfig cfg = quiet_cfg();
  cfg.enable_sw_prefetch = true;
  cfg.prefetch_to_l2 = true;
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  mem.software_prefetch(0, 0x400000, 0x2000);  // will be used
  mem.software_prefetch(0, 0x400004, 0x7000);  // never used
  mem.end_cycle(0);
  mem.begin_cycle(500);
  (void)mem.demand_access(500, 0, 0x2000, false);
  mem.finalize();
  EXPECT_EQ(mem.classifier().good().sw, 1u);
  EXPECT_EQ(mem.classifier().bad().sw, 1u);
}

TEST(HierarchyModes, LoadLatencyHistogramSeparatesHitAndMiss) {
  SimConfig cfg = quiet_cfg();
  MemoryHierarchy mem(cfg);
  mem.begin_cycle(0);
  (void)mem.demand_access(0, 0, 0x3000, false);  // cold: >150 cycles
  mem.begin_cycle(1000);
  (void)mem.demand_access(1000, 0, 0x3000, false);  // hit: 1 cycle
  const Histogram& h = mem.load_latency();
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.bucket(0), 1u);      // the hit
  EXPECT_GT(h.max_seen(), 150u);   // the miss
  EXPECT_GT(h.mean(), 50.0);
}

TEST(HierarchyModes, InOrderPresetIsMuchSlowerOnMissHeavyCode) {
  // The paper motivates prefetching with static (in-order) machines; the
  // in-order preset (width 1, ROB 1) must expose full miss latencies.
  SimConfig ooo;
  ooo.max_instructions = 100'000;
  ooo.warmup_instructions = 30'000;
  SimConfig in_order = ooo;
  in_order.core.width = 1;
  in_order.core.rob_entries = 1;
  in_order.core.lsq_entries = 1;
  const SimResult r_ooo = run_benchmark(ooo, "em3d");
  const SimResult r_io = run_benchmark(in_order, "em3d");
  EXPECT_LT(r_io.ipc(), r_ooo.ipc() * 0.6);
  EXPECT_LE(r_io.ipc(), 1.0);
}

}  // namespace
}  // namespace ppf::sim
