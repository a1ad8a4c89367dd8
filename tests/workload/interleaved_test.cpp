#include "workload/interleaved.hpp"

#include <gtest/gtest.h>

#include "workload/benchmarks.hpp"

namespace ppf::workload {
namespace {

std::unique_ptr<InterleavedTrace> make_mix(std::uint64_t interval) {
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(make_benchmark("bh", 1));
  v.push_back(make_benchmark("mcf", 2));
  return std::make_unique<InterleavedTrace>(std::move(v), interval);
}

/// Finite source of `n` distinguishable records (pc = base + i).
std::unique_ptr<VectorTrace> make_finite(std::size_t n, Pc base) {
  std::vector<TraceRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i].pc = base + static_cast<Pc>(i);
  }
  return std::make_unique<VectorTrace>(std::move(recs));
}

TEST(Interleaved, RoundRobinSwitchesAtInterval) {
  auto mix = make_mix(100);
  TraceRecord r;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(mix->next(r));
  EXPECT_EQ(mix->switches(), 0u);
  ASSERT_TRUE(mix->next(r));  // 101st record: from program 1
  EXPECT_EQ(mix->switches(), 1u);
  EXPECT_EQ(mix->current_program(), 1u);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(mix->next(r));
  EXPECT_EQ(mix->switches(), 2u);
  EXPECT_EQ(mix->current_program(), 0u);
}

TEST(Interleaved, AddressSpacesAreDisjoint) {
  auto mix = make_mix(50);
  TraceRecord r;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(mix->next(r));
    const std::uint64_t asid = r.pc >> 40;
    EXPECT_LT(asid, 2u);
    if (r.kind == InstKind::Load || r.kind == InstKind::Store) {
      EXPECT_EQ(r.addr >> 40, asid);  // data follows its program
    }
  }
}

TEST(Interleaved, SlicesMatchTheUnderlyingPrograms) {
  // Records in slice k must equal the k-th chunk of the underlying
  // program's own stream (modulo the address-space tag).
  auto solo = make_benchmark("bh", 1);
  auto mix = make_mix(64);
  TraceRecord a, b;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(solo->next(a));
    ASSERT_TRUE(mix->next(b));
    EXPECT_EQ(a.pc, b.pc);  // program 0 carries tag 0
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.addr, b.addr);
  }
}

TEST(Interleaved, NamesListMembers) {
  auto mix = make_mix(10);
  EXPECT_STREQ(mix->name(), "interleaved(bh+mcf)");
}

TEST(Interleaved, BranchTargetsTagged) {
  auto mix = make_mix(1000);
  TraceRecord r;
  bool saw_branch = false;
  // Skip into program 1's slice, then check a taken branch target.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(mix->next(r));
    if (i > 1000 && r.kind == InstKind::Branch && r.taken) {
      EXPECT_EQ(r.target >> 40, 1u);
      saw_branch = true;
      break;
    }
  }
  EXPECT_TRUE(saw_branch);
}

TEST(Interleaved, EveryOperandOfProgramOneCarriesItsTag) {
  // Program 1's slice, read as columns: a load's address and a branch's
  // target both carry tag 1, and an Op's operand stays 0.
  auto mix = make_mix(1000);
  ColumnBuffer<1000> skip;
  ASSERT_EQ(mix->next_batch(skip.columns(), 1000), 1000u);  // program 0
  ColumnBuffer<1000> buf;
  ASSERT_EQ(mix->next_batch(buf.columns(), 1000), 1000u);
  ASSERT_EQ(mix->current_program(), 1u);
  bool saw_load = false, saw_branch = false;
  for (std::size_t i = 0; i < 1000; ++i) {
    const InstKind kind = op_kind(buf.op[i]);
    EXPECT_EQ(buf.pc[i] >> 40, 1u) << i;
    if (kind == InstKind::Op) {
      EXPECT_EQ(buf.operand[i], 0u) << i;
    } else {
      EXPECT_EQ(buf.operand[i] >> 40, 1u) << i;
    }
    const TraceRecord r = buf.columns().get(i);
    if (kind == InstKind::Load) {
      EXPECT_EQ(r.addr >> 40, 1u) << i;
      saw_load = true;
    }
    if (kind == InstKind::Branch) {
      EXPECT_EQ(r.target >> 40, 1u) << i;
      saw_branch = true;
    }
  }
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_branch);
}

TEST(Interleaved, SingleSourceRotatesToItself) {
  // Degenerate mix of one program: every record comes through untagged
  // (program 0), self-rotations at each interval are still counted, and
  // exhaustion of the single source ends the mix.
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(make_finite(25, 100));
  InterleavedTrace mix(std::move(v), 10);
  TraceRecord r;
  for (std::size_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(mix.next(r));
    EXPECT_EQ(r.pc, 100 + i);  // tag is 0: records pass unchanged
    EXPECT_EQ(mix.current_program(), 0u);
  }
  EXPECT_EQ(mix.switches(), 2u);  // after records 10 and 20
  EXPECT_FALSE(mix.next(r));
}

TEST(Interleaved, SliceLargerThanRemainingCedesToNextSource) {
  // Program 0 has 5 records but the slice is 10: once it runs dry the
  // rest of its slice is handed to program 1 instead of ending the mix.
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(make_finite(5, 100));
  v.push_back(make_finite(30, 200));
  InterleavedTrace mix(std::move(v), 10);
  TraceRecord r;
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(mix.next(r));
    EXPECT_EQ(r.pc, 100 + i);
  }
  // The handoff is a context switch and starts a fresh full slice.
  ASSERT_TRUE(mix.next(r));
  EXPECT_EQ(r.pc, (Addr{1} << 40) | 200);
  EXPECT_EQ(mix.current_program(), 1u);
  EXPECT_EQ(mix.switches(), 1u);
  for (std::size_t i = 1; i < 10; ++i) ASSERT_TRUE(mix.next(r));
  EXPECT_EQ(mix.switches(), 1u);  // still inside program 1's slice
}

TEST(Interleaved, ExhaustedSourceRotationDrainsEveryRecord) {
  // Unequal-length programs: the mix must deliver all records of both
  // and only then report exhaustion, skipping the dry program on every
  // later rotation.
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(make_finite(5, 100));
  v.push_back(make_finite(30, 200));
  InterleavedTrace mix(std::move(v), 10);
  TraceRecord r;
  std::size_t from_a = 0, from_b = 0;
  while (mix.next(r)) {
    ((r.pc >> 40) == 0 ? from_a : from_b)++;
  }
  EXPECT_EQ(from_a, 5u);
  EXPECT_EQ(from_b, 30u);
  EXPECT_FALSE(mix.next(r));  // stays exhausted
}

}  // namespace
}  // namespace ppf::workload
