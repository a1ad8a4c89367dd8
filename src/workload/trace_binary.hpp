// Compact binary trace format ("ppfb"), the storage format for long
// captures. Records are delta/varint encoded: PCs and addresses in real
// traces move in small steps, so a 300M-instruction capture shrinks by
// roughly an order of magnitude versus the v1 text format.
//
// Layout: 8-byte magic "ppfbtr02", varint record count, then per record:
//   byte 0: kind (3 bits) | taken (1) | serial (1) | has-regs (1)
//   varint: zigzag(pc delta from previous record's pc)
//   [has-regs]     three raw bytes: dst, src1, src2
//   [mem kinds]    varint zigzag(addr delta from previous mem addr)
//   [branch kind]  varint zigzag(target delta from pc)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace ppf::workload {

/// Serialise records in the compact binary format.
void write_trace_binary(std::ostream& os,
                        const std::vector<TraceRecord>& records);

/// Reader of the compact binary format; a bad magic throws
/// TraceFormatError on construction.
class BinaryTraceReader final : public TraceReader {
 public:
  explicit BinaryTraceReader(std::istream& is, std::string name = "ppfb");

 private:
  TraceRecord read_record() override;

  Pc prev_pc_ = 0;
  Addr prev_addr_ = 0;
};

/// Every record of a compact binary trace (collect() over the reader).
std::vector<TraceRecord> read_trace_binary(std::istream& is);

/// The reader for a serialized trace on a seekable stream, chosen by its
/// first bytes: the "ppfbtr02" magic opens a BinaryTraceReader, anything
/// else a TextTraceReader. The chosen reader's TraceFormatError for a
/// bad header propagates.
std::unique_ptr<TraceReader> open_trace(std::istream& is, std::string name);

// Exposed for unit tests: LEB128 varint and zigzag primitives.
void put_varint(std::ostream& os, std::uint64_t v);
std::uint64_t get_varint(std::istream& is);
std::uint64_t zigzag_encode(std::int64_t v);
std::int64_t zigzag_decode(std::uint64_t v);

}  // namespace ppf::workload
