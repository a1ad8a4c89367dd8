// LineBuffer in both of its roles. The PrefetchBuffer cases store
// prefetched records as the dedicated prefetch buffer does (PIB set,
// RIB clear, trigger and source kept); the VictimCache cases store L1
// evictions as the victim cache does (dirty data, demand lines).
#include "mem/line_buffer.hpp"

#include <gtest/gtest.h>

namespace ppf::mem {
namespace {

Eviction prefetched(LineAddr line, Pc trigger_pc = 0,
                    PrefetchSource source = PrefetchSource::Software) {
  Eviction e;
  e.line = line;
  e.pib = true;
  e.trigger_pc = trigger_pc;
  e.source = source;
  return e;
}

Eviction evicted(LineAddr line, bool dirty = false) {
  Eviction e;
  e.line = line;
  e.dirty = dirty;
  return e;
}

TEST(PrefetchBuffer, InsertThenProbeRemoves) {
  LineBuffer b(4);
  b.insert(prefetched(10, 0x400000, PrefetchSource::ShadowDirectory));
  EXPECT_TRUE(b.contains(10));
  const auto hit = b.take(10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->pib);
  EXPECT_FALSE(hit->rib);  // returned as stored; the caller judges it
  EXPECT_EQ(hit->trigger_pc, 0x400000u);
  EXPECT_EQ(hit->source, PrefetchSource::ShadowDirectory);
  EXPECT_FALSE(b.contains(10));
}

TEST(PrefetchBuffer, MissReturnsNothing) {
  LineBuffer b(4);
  EXPECT_FALSE(b.take(99).has_value());
  EXPECT_EQ(b.probes(), 1u);
  EXPECT_EQ(b.hits(), 0u);
}

TEST(PrefetchBuffer, LruEvictionReportsUnreferenced) {
  LineBuffer b(2);
  b.insert(prefetched(1, 0x10, PrefetchSource::NextSequence));
  b.insert(prefetched(2, 0x20, PrefetchSource::NextSequence));
  const auto ev = b.insert(prefetched(3, 0x30, PrefetchSource::NextSequence));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 1u);  // oldest entry displaced
  EXPECT_TRUE(ev->pib);
  EXPECT_FALSE(ev->rib);    // never referenced: a bad prefetch
  EXPECT_EQ(ev->trigger_pc, 0x10u);
  EXPECT_TRUE(b.contains(2));
  EXPECT_TRUE(b.contains(3));
}

TEST(PrefetchBuffer, DuplicateInsertRefreshesRecency) {
  LineBuffer b(2);
  b.insert(prefetched(1, 0x10));
  b.insert(prefetched(2, 0x20));
  EXPECT_FALSE(b.insert(prefetched(1, 0x11)).has_value());
  // 1 is now MRU, so 2 is the victim.
  const auto ev = b.insert(prefetched(3));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 2u);
  EXPECT_EQ(b.take(1)->trigger_pc, 0x11u);  // the newer record is kept
}

TEST(PrefetchBuffer, DrainReturnsResidueAsUnreferenced) {
  LineBuffer b(4);
  b.insert(prefetched(1));
  b.insert(prefetched(2, 0, PrefetchSource::ShadowDirectory));
  const auto drained = b.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].line, 1u);  // slot order
  EXPECT_EQ(drained[1].line, 2u);
  for (const Eviction& ev : drained) EXPECT_FALSE(ev.rib);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.drain().empty());
}

TEST(PrefetchBuffer, SizeAndCapacity) {
  LineBuffer b(16);
  EXPECT_EQ(b.capacity(), 16u);
  EXPECT_EQ(b.size(), 0u);
  for (LineAddr l = 0; l < 20; ++l) b.insert(prefetched(l));
  EXPECT_EQ(b.size(), 16u);  // bounded by capacity
}

TEST(PrefetchBuffer, StatsAndReset) {
  LineBuffer b(4);
  b.insert(prefetched(1));
  (void)b.take(1);
  (void)b.take(1);
  EXPECT_EQ(b.inserts(), 1u);
  EXPECT_EQ(b.probes(), 2u);
  EXPECT_EQ(b.hits(), 1u);
  b.reset_stats();
  EXPECT_EQ(b.inserts(), 0u);
  EXPECT_EQ(b.probes(), 0u);
}

TEST(VictimCache, InsertThenRecall) {
  LineBuffer v(4);
  EXPECT_FALSE(v.insert(evicted(10, true)).has_value());
  EXPECT_TRUE(v.contains(10));
  const auto r = v.take(10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->line, 10u);
  EXPECT_TRUE(r->dirty);  // metadata preserved for the reinstall
  EXPECT_FALSE(v.contains(10));
}

TEST(VictimCache, MissReturnsNothing) {
  LineBuffer v(4);
  v.insert(evicted(1));
  EXPECT_FALSE(v.take(99).has_value());
  EXPECT_TRUE(v.contains(1));  // a miss leaves the others in place
  EXPECT_EQ(v.probes(), 1u);
  EXPECT_EQ(v.hits(), 0u);
}

TEST(VictimCache, LruDisplacement) {
  LineBuffer v(2);
  v.insert(evicted(1, true));
  v.insert(evicted(2));
  const auto displaced = v.insert(evicted(3));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->line, 1u);
  EXPECT_TRUE(displaced->dirty);
  EXPECT_FALSE(v.contains(1));
  EXPECT_TRUE(v.contains(2));
  EXPECT_TRUE(v.contains(3));
}

TEST(VictimCache, ReinsertRefreshesRecency) {
  LineBuffer v(2);
  v.insert(evicted(1));
  v.insert(evicted(2));
  v.insert(evicted(1, true));  // refresh (and update metadata)
  v.insert(evicted(3));        // now 2 is LRU
  EXPECT_TRUE(v.contains(1));
  EXPECT_FALSE(v.contains(2));
  EXPECT_TRUE(v.take(1)->dirty);
}

TEST(VictimCache, SizeTracksOccupancy) {
  LineBuffer v(8);
  EXPECT_EQ(v.size(), 0u);
  for (LineAddr l = 0; l < 12; ++l) v.insert(evicted(l));
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v.capacity(), 8u);
  (void)v.take(11);
  EXPECT_EQ(v.size(), 7u);
}

TEST(VictimCache, StatsAndReset) {
  LineBuffer v(2);
  v.insert(evicted(1));
  (void)v.take(1);
  (void)v.take(1);
  EXPECT_EQ(v.inserts(), 1u);
  EXPECT_EQ(v.probes(), 2u);
  EXPECT_EQ(v.hits(), 1u);
  v.reset_stats();
  EXPECT_EQ(v.probes(), 0u);
  EXPECT_EQ(v.hits(), 0u);
}

}  // namespace
}  // namespace ppf::mem
