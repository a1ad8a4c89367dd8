#include "workload/materialized.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <vector>

#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"
#include "workload/trace_binary.hpp"

namespace ppf::workload {
namespace {

/// One next_batch call for up to `n` (at most 64) records, decoded.
std::vector<TraceRecord> read_batch(TraceSource& src, std::size_t n) {
  ColumnBuffer<64> buf;
  std::vector<TraceRecord> out(src.next_batch(buf.columns(), n));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = buf.columns().get(i);
  return out;
}

std::vector<TraceRecord> make_records(std::size_t n) {
  std::vector<TraceRecord> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord& r = v[i];
    r.pc = 0x1000 + 4 * i;
    r.kind = static_cast<InstKind>(i % 5);
    // Only the operand the kind carries: the columns keep no other.
    if (has_address(r.kind)) r.addr = 0x80000 + 32 * i;
    if (r.kind == InstKind::Branch) r.target = 0x2000 + i;
    r.taken = (i % 3) == 0;
    r.serial = (i % 7) == 0;
    r.dst = static_cast<std::uint8_t>(i % 32);
    r.src1 = static_cast<std::uint8_t>((i + 1) % 32);
    r.src2 = static_cast<std::uint8_t>((i + 2) % 32);
  }
  return v;
}

TEST(MaterializedTraceTest, RoundTripsEveryField) {
  const auto records = make_records(300);
  VectorTrace vt(records, "rt");
  const auto arena = materialize(vt, records.size());
  ASSERT_EQ(arena->size(), records.size());
  EXPECT_STREQ(arena->name().c_str(), "rt");

  TraceCursor cur(arena);
  TraceRecord out;
  for (const TraceRecord& want : records) {
    ASSERT_TRUE(cur.next(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(cur.next(out));
}

TEST(MaterializedTraceTest, ShortSourceYieldsShortArena) {
  VectorTrace vt(make_records(10));
  const auto arena = materialize(vt, 100);
  EXPECT_EQ(arena->size(), 10u);
}

TEST(MaterializedTraceTest, BytesReflectSoaLayout) {
  VectorTrace vt(make_records(64));
  const auto arena = materialize(vt, 64);
  // pc/operand words plus op/dst/src1/src2 bytes.
  EXPECT_EQ(arena->bytes(), 64u * 20u);
}

TEST(MaterializedTraceTest, StrayOperandsAreDroppedByEveryReader) {
  // A record keeps only the operand its kind carries: an address on a
  // Branch or an Op, or a target on a Load, is dropped by put() and so by
  // the text and binary readers alike (ppfb never wrote such fields).
  std::vector<TraceRecord> stray = make_records(40);
  for (TraceRecord& r : stray) {
    if (r.kind == InstKind::Branch || r.kind == InstKind::Op) {
      r.addr = 0xdead00 + r.pc;
    }
    if (r.kind == InstKind::Load) r.target = 0xbeef00 + r.pc;
  }
  const std::vector<TraceRecord> clean = make_records(40);
  ASSERT_NE(stray, clean);

  ColumnBuffer<40> put;
  for (std::size_t i = 0; i < stray.size(); ++i) put.columns().put(i, stray[i]);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(put.columns().get(i), clean[i]) << "put, record " << i;
    if (clean[i].kind == InstKind::Op) {
      EXPECT_EQ(put.operand[i], 0u) << "an Op's operand, record " << i;
    }
  }

  std::stringstream text, binary;
  write_trace(text, stray);
  write_trace_binary(binary, stray);
  EXPECT_EQ(read_trace(text), clean);
  EXPECT_EQ(read_trace_binary(binary), clean);
}

TEST(TraceCursorTest, BatchedAndSingleReadsAgree) {
  const auto records = make_records(257);  // deliberately not a batch multiple
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  TraceCursor ones(arena);
  TraceCursor batched(arena);
  std::vector<TraceRecord> got_single;
  TraceRecord r;
  while (ones.next(r)) got_single.push_back(r);

  std::vector<TraceRecord> got_batch;
  std::vector<TraceRecord> batch;
  while (!(batch = read_batch(batched, 64)).empty()) {
    got_batch.insert(got_batch.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(got_single, got_batch);
  EXPECT_EQ(got_single.size(), records.size());
}

TEST(TraceCursorTest, SeekRepositionsAndManyCursorsShareOneArena) {
  const auto records = make_records(100);
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  TraceCursor a(arena, 40);
  EXPECT_EQ(a.pos(), 40u);
  EXPECT_EQ(a.remaining(), 60u);
  TraceRecord r;
  ASSERT_TRUE(a.next(r));
  EXPECT_EQ(r, records[40]);

  a.seek(0);
  TraceCursor b(arena);  // independent cursor over the same storage
  TraceRecord ra, rb;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(a.next(ra));
    ASSERT_TRUE(b.next(rb));
    EXPECT_EQ(ra, rb);
  }
}

TEST(TraceCursorTest, PartialFinalBatchReturnsExactRemainder) {
  // 130 records read in batches of 64: the third call must return the
  // 2-record tail (not 0, not 64) and leave the cursor exhausted.
  const auto records = make_records(130);
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  TraceCursor cur(arena);
  EXPECT_EQ(read_batch(cur, 64).size(), 64u);
  EXPECT_EQ(read_batch(cur, 64).size(), 64u);
  const std::vector<TraceRecord> tail = read_batch(cur, 64);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], records[128]);
  EXPECT_EQ(tail[1], records[129]);
  EXPECT_EQ(cur.remaining(), 0u);
  EXPECT_EQ(read_batch(cur, 64).size(), 0u);  // stays dry, pos unchanged
  EXPECT_EQ(cur.pos(), records.size());
}

TEST(TraceCursorTest, SeekMidBatchRestartsExactlyAtTarget) {
  // Seeking to a position that is not a batch multiple must not skew
  // subsequent batched reads — the snapshot resume path depends on this.
  const auto records = make_records(200);
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  TraceCursor cur(arena);
  ASSERT_EQ(read_batch(cur, 64).size(), 64u);
  cur.seek(37);  // backwards, into the middle of the batch just read
  EXPECT_EQ(cur.pos(), 37u);
  std::vector<TraceRecord> buf = read_batch(cur, 64);
  ASSERT_EQ(buf.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(buf[i], records[37 + i]) << "offset " << i;
  }
  cur.seek(170);  // forwards, past data never read through this cursor
  buf = read_batch(cur, 64);
  ASSERT_EQ(buf.size(), 30u);
  EXPECT_EQ(buf[0], records[170]);
  EXPECT_EQ(buf[29], records[199]);
}

TEST(TraceCursorTest, ZeroLengthBatchIsANoOp) {
  const auto records = make_records(8);
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  TraceCursor cur(arena, 3);
  ColumnBuffer<1> sentinel{};
  sentinel.pc[0] = 0xdead;
  EXPECT_EQ(cur.next_batch(sentinel.columns(), 0), 0u);
  EXPECT_EQ(cur.pos(), 3u);              // position untouched
  EXPECT_EQ(sentinel.pc[0], 0xdeadu);    // buffer untouched
  cur.seek(records.size());
  EXPECT_EQ(cur.next_batch(sentinel.columns(), 0), 0u);  // zero at EOF too
}

TEST(TraceCursorTest, BatchedIterationAcrossWarmupPauseBoundary) {
  // The warmup snapshot pauses the core mid-trace and a fresh cursor is
  // rebuilt at the published position (possibly mid-batch). Reading
  // warmup records through one cursor and the window through a second
  // must concatenate to exactly one straight pass over the arena.
  const auto records = make_records(500);
  const std::size_t kPause = 213;  // not a multiple of any batch size
  VectorTrace vt(records);
  const auto arena = materialize(vt, records.size());

  std::vector<TraceRecord> stitched;
  std::vector<TraceRecord> buf;
  TraceCursor warm(arena);
  while (warm.pos() < kPause) {
    buf = read_batch(warm, std::min<std::size_t>(64, kPause - warm.pos()));
    ASSERT_FALSE(buf.empty());
    stitched.insert(stitched.end(), buf.begin(), buf.end());
  }
  ASSERT_EQ(warm.pos(), kPause);

  TraceCursor window(arena, warm.pos());  // resume, as run_from_snapshot does
  while (!(buf = read_batch(window, 64)).empty()) {
    stitched.insert(stitched.end(), buf.begin(), buf.end());
  }
  EXPECT_EQ(stitched, records);
}

TEST(TraceCursorTest, MatchesStreamingBenchmarkGeneration) {
  // The arena must reproduce the generator's stream exactly — this is
  // the foundation the simulator-level equivalence tests build on — and
  // so must every other reader of the same records, column by column.
  constexpr std::size_t kN = 20'000;
  auto streaming = make_benchmark("mcf", 7);
  auto again = make_benchmark("mcf", 7);
  const auto arena = materialize(*again, kN);
  ASSERT_EQ(arena->size(), kN);

  TraceCursor cur(arena);
  TraceRecord want, got;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(streaming->next(want));
    ASSERT_TRUE(cur.next(got));
    ASSERT_EQ(got, want) << "diverged at record " << i;
  }

  const std::vector<TraceRecord> records =
      collect(*make_benchmark("mcf", 7), kN);
  std::stringstream text, binary;
  write_trace(text, records);
  write_trace_binary(binary, records);
  TraceCursor cursor(arena);
  VectorTrace vector(records);
  TextTraceReader text_reader(text);
  BinaryTraceReader binary_reader(binary);
  for (TraceSource* src : std::initializer_list<TraceSource*>{
           &cursor, &vector, &text_reader, &binary_reader}) {
    const auto copy = materialize(*src, kN + 1);  // every reader ends at kN
    ASSERT_EQ(copy->size(), kN) << src->name();
    const ColumnView a = arena->view();
    const ColumnView b = copy->view();
    EXPECT_TRUE(std::equal(a.pc, a.pc + kN, b.pc)) << src->name();
    EXPECT_TRUE(std::equal(a.operand, a.operand + kN, b.operand))
        << src->name();
    EXPECT_TRUE(std::equal(a.op, a.op + kN, b.op)) << src->name();
    EXPECT_TRUE(std::equal(a.dst, a.dst + kN, b.dst)) << src->name();
    EXPECT_TRUE(std::equal(a.src1, a.src1 + kN, b.src1)) << src->name();
    EXPECT_TRUE(std::equal(a.src2, a.src2 + kN, b.src2)) << src->name();
  }
}

}  // namespace
}  // namespace ppf::workload
