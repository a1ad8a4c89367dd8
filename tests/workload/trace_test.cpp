#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace ppf::workload {
namespace {

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> v;
  v.push_back(TraceRecord{0x400000, InstKind::Op, 0, 0, false});
  v.push_back(TraceRecord{0x400004, InstKind::Load, 0x10001000, 0, false});
  TraceRecord serial{0x400008, InstKind::Load, 0x20002000, 0, false};
  serial.serial = true;
  v.push_back(serial);
  v.push_back(TraceRecord{0x40000C, InstKind::Store, 0x30003000, 0, false});
  v.push_back(
      TraceRecord{0x400010, InstKind::SwPrefetch, 0x40004000, 0, false});
  v.push_back(TraceRecord{0x400014, InstKind::Branch, 0, 0x400000, true});
  return v;
}

TEST(VectorTrace, ReplaysInOrderThenEnds) {
  VectorTrace t(sample_records(), "sample");
  TraceRecord r;
  std::size_t n = 0;
  while (t.next(r)) ++n;
  EXPECT_EQ(n, 6u);
  EXPECT_FALSE(t.next(r));
  EXPECT_STREQ(t.name(), "sample");
}

TEST(VectorTrace, RewindRestarts) {
  VectorTrace t(sample_records());
  TraceRecord r;
  ASSERT_TRUE(t.next(r));
  EXPECT_EQ(r.pc, 0x400000u);
  while (t.next(r)) {
  }
  t.rewind();
  ASSERT_TRUE(t.next(r));
  EXPECT_EQ(r.pc, 0x400000u);
}

TEST(Collect, StopsAtLimitOrEnd) {
  VectorTrace t(sample_records());
  EXPECT_EQ(collect(t, 3).size(), 3u);
  t.rewind();
  EXPECT_EQ(collect(t, 100).size(), 6u);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const auto original = sample_records();
  std::stringstream ss;
  write_trace(ss, original);
  const auto loaded = read_trace(ss);
  EXPECT_EQ(loaded, original);
}

TEST(TraceIo, SerialFlagSurvivesRoundTrip) {
  const auto original = sample_records();
  std::stringstream ss;
  write_trace(ss, original);
  const auto loaded = read_trace(ss);
  ASSERT_EQ(loaded.size(), 6u);
  EXPECT_FALSE(loaded[1].serial);
  EXPECT_TRUE(loaded[2].serial);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(TraceIo, RejectsWrongMagic) {
  std::stringstream ss("nottrace v2 0\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::stringstream ss("ppftrace v2 3\n400000 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsInvalidKind) {
  std::stringstream ss("ppftrace v2 1\n400000 9 0 0 0 0 0 0 0\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, ReaderStreamsAndNamesTheBadRecord) {
  // Records before a bad one arrive; the error names the bad one's index.
  const auto error_of = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    TextTraceReader reader(ss);
    TraceRecord r;
    try {
      while (reader.next(r)) {
      }
    } catch (const TraceFormatError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("ppftrace v2 3\n400000 0 0 0 0 0 0 0 0\n"),
            "truncated ppftrace stream at record 1");
  EXPECT_EQ(error_of("ppftrace v2 2\n400000 0 0 0 0 0 0 0 0\n"
                     "400004 9 0 0 0 0 0 0 0\n"),
            "invalid instruction kind in trace at record 1");
  EXPECT_EQ(error_of("ppftrace v2 1\n400000 0 0 0 0 0 40 0 0\n"),
            "invalid register in trace at record 0");
  EXPECT_EQ(error_of("ppftrace v2 1\n400000 0 0 0 0 0 0 0 0\n"), "no error");
}

}  // namespace
}  // namespace ppf::workload
