#include "workload/trace_binary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::workload {
namespace {

TEST(Varint, RoundTripsBoundaryValues) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          ~0ULL, 0xDEADBEEFCAFEULL}) {
    std::stringstream ss;
    put_varint(ss, v);
    EXPECT_EQ(get_varint(ss), v);
  }
}

TEST(Varint, TruncatedInputThrows) {
  std::stringstream ss;
  ss.put(static_cast<char>(0x80));  // continuation bit with no next byte
  EXPECT_THROW(get_varint(ss), std::runtime_error);
}

TEST(Zigzag, RoundTripsSignedValues) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 63LL, -64LL, 1LL << 40,
                         -(1LL << 40)}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes encode small: the property the format relies on.
  EXPECT_LE(zigzag_encode(-1), 2u);
  EXPECT_LE(zigzag_encode(2), 4u);
}

TEST(BinaryTrace, RoundTripsRealWorkload) {
  auto gen = make_benchmark("gcc", 11);
  const std::vector<TraceRecord> original = collect(*gen, 20000);
  std::stringstream ss;
  write_trace_binary(ss, original);
  const std::vector<TraceRecord> loaded = read_trace_binary(ss);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded, original);
}

TEST(BinaryTrace, SubstantiallySmallerThanText) {
  auto gen = make_benchmark("wave5", 5);
  const std::vector<TraceRecord> records = collect(*gen, 20000);
  std::stringstream text, binary;
  write_trace(text, records);
  write_trace_binary(binary, records);
  EXPECT_LT(binary.str().size() * 3, text.str().size());
}

TEST(BinaryTrace, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace_binary(ss, {});
  EXPECT_TRUE(read_trace_binary(ss).empty());
}

TEST(BinaryTrace, RejectsWrongMagic) {
  std::stringstream ss("ppfbtr99XXXX");
  EXPECT_THROW(read_trace_binary(ss), std::runtime_error);
}

TEST(BinaryTrace, RejectsTruncatedBody) {
  auto gen = make_benchmark("bh", 2);
  const std::vector<TraceRecord> records = collect(*gen, 100);
  std::stringstream ss;
  write_trace_binary(ss, records);
  const std::string whole = ss.str();
  std::stringstream cut(whole.substr(0, whole.size() / 2));
  EXPECT_THROW(read_trace_binary(cut), std::runtime_error);
}

TEST(BinaryTrace, HugeRecordCountWithoutRecordsIsTruncated) {
  // The header's count must not size an allocation: magic plus a count
  // of 2^62 and no records is a truncated trace, not a length_error or
  // bad_alloc.
  std::stringstream ss;
  ss.write("ppfbtr02", 8);
  put_varint(ss, std::uint64_t{1} << 62);
  try {
    (void)read_trace_binary(ss);
    FAIL() << "read_trace_binary accepted a trace with no records";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "truncated binary trace at record 0");
  }
}

TEST(BinaryTrace, HeaderCountOverShortBodyFailsAtItsEnd) {
  // A header claiming 2^40 records over a 3-record body: the reader sizes
  // nothing by the claim, streams the three records, and names record 3
  // as the one that is missing.
  auto gen = make_benchmark("gcc", 3);
  const std::vector<TraceRecord> three = collect(*gen, 3);
  std::stringstream body;
  write_trace_binary(body, three);
  std::stringstream ss;
  ss.write("ppfbtr02", 8);
  put_varint(ss, std::uint64_t{1} << 40);
  ss << body.str().substr(8 + 1);  // drop the real magic and count
  BinaryTraceReader reader(ss);
  ColumnBuffer<3> buf;
  ASSERT_EQ(reader.next_batch(buf.columns(), 3), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(buf.columns().get(i), three[i]);
  ss.seekg(0);
  try {
    (void)read_trace_binary(ss);
    FAIL() << "read_trace_binary accepted a 3-record body";
  } catch (const TraceFormatError& e) {
    EXPECT_STREQ(e.what(), "truncated binary trace at record 3");
  }
}

TEST(BinaryTrace, PreservesFlags) {
  std::vector<TraceRecord> v;
  TraceRecord serial{0x400000, InstKind::Load, 0x1000, 0, false};
  serial.serial = true;
  v.push_back(serial);
  TraceRecord br{0x400004, InstKind::Branch, 0, 0x400020, true};
  v.push_back(br);
  std::stringstream ss;
  write_trace_binary(ss, v);
  const auto loaded = read_trace_binary(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded[0].serial);
  EXPECT_TRUE(loaded[1].taken);
  EXPECT_EQ(loaded[1].target, 0x400020u);
}

TEST(OpenTrace, EitherFormatMaterializesToTheSameColumns) {
  // open_trace picks the reader from the first bytes: the same records,
  // captured as text and as ppfb, must come back as identical arenas.
  auto gen = make_benchmark("ijpeg", 4);
  const std::vector<TraceRecord> records = collect(*gen, 5000);
  std::stringstream text, binary;
  write_trace(text, records);
  write_trace_binary(binary, records);
  const auto from_text = materialize(*open_trace(text, "capture"), 6000);
  const auto from_binary = materialize(*open_trace(binary, "capture"), 6000);
  ASSERT_EQ(from_text->size(), records.size());
  ASSERT_EQ(from_binary->size(), records.size());
  EXPECT_EQ(from_text->name(), "capture");
  EXPECT_EQ(from_binary->name(), "capture");
  const ColumnView a = from_text->view();
  const ColumnView b = from_binary->view();
  const std::size_t n = records.size();
  EXPECT_TRUE(std::equal(a.pc, a.pc + n, b.pc));
  EXPECT_TRUE(std::equal(a.addr, a.addr + n, b.addr));
  EXPECT_TRUE(std::equal(a.target, a.target + n, b.target));
  EXPECT_TRUE(std::equal(a.op, a.op + n, b.op));
  EXPECT_TRUE(std::equal(a.dst, a.dst + n, b.dst));
  EXPECT_TRUE(std::equal(a.src1, a.src1 + n, b.src1));
  EXPECT_TRUE(std::equal(a.src2, a.src2 + n, b.src2));
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a.get(i), records[i]) << i;
}

TEST(OpenTrace, AnythingButTheMagicIsReadAsText) {
  std::stringstream short_binary("ppfb");
  try {
    (void)open_trace(short_binary, "x");
    FAIL() << "a 4-byte stream opened";
  } catch (const TraceFormatError& e) {
    EXPECT_STREQ(e.what(), "not a ppftrace v2 stream");
  }
}

}  // namespace
}  // namespace ppf::workload
