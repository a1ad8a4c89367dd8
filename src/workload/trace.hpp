// Instruction-trace representation.
//
// The paper drives SimpleScalar with Alpha binaries; we drive the timing
// model with deterministic instruction traces produced by the synthetic
// workload generators (or loaded from a file). The record format carries
// exactly what the timing model and the prefetch machinery need: PC,
// instruction kind, the effective address for memory operations, and the
// direction/target for branches.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace ppf::workload {

enum class InstKind : std::uint8_t {
  Op,          ///< non-memory, non-branch instruction
  Load,        ///< demand load
  Store,       ///< demand store
  Branch,      ///< conditional or unconditional control transfer
  SwPrefetch,  ///< compiler-inserted non-binding prefetch
};

inline const char* to_string(InstKind k) {
  switch (k) {
    case InstKind::Op: return "op";
    case InstKind::Load: return "load";
    case InstKind::Store: return "store";
    case InstKind::Branch: return "branch";
    case InstKind::SwPrefetch: return "swpf";
  }
  PPF_ASSERT_MSG(false, "unhandled InstKind");
  return "?";
}

struct TraceRecord {
  Pc pc = 0;
  InstKind kind = InstKind::Op;
  Addr addr = 0;    ///< effective address (Load/Store/SwPrefetch)
  Addr target = 0;  ///< branch target (Branch, when taken)
  bool taken = false;
  /// Load whose address depends on the previous serial load (pointer
  /// chasing): it cannot issue until that load's data returns. Used by
  /// the occupancy core; the dataflow core derives the same chain from
  /// the register fields below.
  bool serial = false;

  /// Architectural registers (0 = none, 1..31 usable). The occupancy
  /// core ignores these; core::DataflowCore builds true dependences
  /// from them.
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Bits of a record's op byte: the InstKind in bits 0-2, then the branch
/// direction and the pointer-chase flag (the ppfb head byte's layout).
inline constexpr std::uint8_t kOpKindMask = 0x07;
inline constexpr std::uint8_t kOpTaken = 0x08;
inline constexpr std::uint8_t kOpSerial = 0x10;

inline InstKind op_kind(std::uint8_t op) {
  return static_cast<InstKind>(op & kOpKindMask);
}

/// Whether records of this kind carry an effective address.
inline bool has_address(InstKind k) {
  return k == InstKind::Load || k == InstKind::Store ||
         k == InstKind::SwPrefetch;
}

/// Spans over records in structure-of-arrays layout: record i is (pc[i],
/// op[i], operand[i], ...). It is the layout of a MaterializedTrace and of
/// every bulk read, from the generator to the cores. No record has both
/// an address and a target, so one operand word holds whichever its kind
/// uses; put() drops the other, as the ppfb format does. ColumnView is
/// the read-only form; `cols + n` is the same columns from record n on.
template <typename Word, typename Byte>
struct BasicColumns {
  Word* pc = nullptr;
  /// Load/Store/SwPrefetch: the effective address; Branch: the target;
  /// Op: 0.
  Word* operand = nullptr;
  Byte* op = nullptr;  ///< kind | kOpTaken | kOpSerial
  Byte* dst = nullptr;
  Byte* src1 = nullptr;
  Byte* src2 = nullptr;

  /// Bytes one record takes across the columns above.
  static constexpr std::size_t kRecordBytes =
      2 * sizeof(Word) + 4 * sizeof(Byte);

  BasicColumns operator+(std::size_t n) const {
    return {pc + n, operand + n, op + n, dst + n, src1 + n, src2 + n};
  }
  operator BasicColumns<const Word, const Byte>() const {
    return {pc, operand, op, dst, src1, src2};
  }

  [[nodiscard]] TraceRecord get(std::size_t i) const {
    TraceRecord r;
    r.pc = pc[i];
    r.kind = op_kind(op[i]);
    if (has_address(r.kind)) r.addr = operand[i];
    if (r.kind == InstKind::Branch) r.target = operand[i];
    r.taken = (op[i] & kOpTaken) != 0;
    r.serial = (op[i] & kOpSerial) != 0;
    r.dst = dst[i];
    r.src1 = src1[i];
    r.src2 = src2[i];
    return r;
  }
  void put(std::size_t i, const TraceRecord& r) const {
    pc[i] = r.pc;
    op[i] = static_cast<std::uint8_t>(static_cast<unsigned>(r.kind) |
                                      (r.taken ? kOpTaken : 0u) |
                                      (r.serial ? kOpSerial : 0u));
    operand[i] = has_address(r.kind)            ? r.addr
                 : r.kind == InstKind::Branch ? r.target
                                              : 0;
    dst[i] = r.dst;
    src1[i] = r.src1;
    src2[i] = r.src2;
  }
};
using TraceColumns = BasicColumns<std::uint64_t, std::uint8_t>;
using ColumnView = BasicColumns<const std::uint64_t, const std::uint8_t>;
static_assert(TraceColumns::kRecordBytes == 20,
              "a record is two words and four bytes");

/// Copy records [0, n) of `from` to `to`, column by column.
inline void copy_columns(ColumnView from, TraceColumns to, std::size_t n) {
  std::copy_n(from.pc, n, to.pc);
  std::copy_n(from.operand, n, to.operand);
  std::copy_n(from.op, n, to.op);
  std::copy_n(from.dst, n, to.dst);
  std::copy_n(from.src1, n, to.src1);
  std::copy_n(from.src2, n, to.src2);
}

/// Column storage for up to N records: the cores' fetch windows, the
/// generator's pending block, one-record reads.
template <std::size_t N>
struct ColumnBuffer {
  std::array<std::uint64_t, N> pc, operand;
  std::array<std::uint8_t, N> op, dst, src1, src2;

  TraceColumns columns() {
    return {pc.data(),  operand.data(), op.data(),
            dst.data(), src1.data(),    src2.data()};
  }
};

/// A malformed trace file or stream; a bad record's message names its
/// index.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Pull-based instruction stream.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Write up to `n` records into `out` (every column holds at least
  /// `n`); returns how many were written, short only at end of stream.
  virtual std::size_t next_batch(TraceColumns out, std::size_t n) = 0;

  /// One record; false when the stream is exhausted.
  bool next(TraceRecord& out);

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Replays a fixed vector of records (tests).
class VectorTrace final : public TraceSource {
 public:
  explicit VectorTrace(std::vector<TraceRecord> records,
                       std::string name = "vector");

  std::size_t next_batch(TraceColumns out, std::size_t n) override;
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

  void rewind() { pos_ = 0; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
  std::string name_;
  std::size_t pos_ = 0;
};

/// A serialized trace parsed as it is read. The format's constructor
/// reads the header, which declares count_ records; a record that does
/// not parse throws TraceFormatError naming its index. The header's count
/// bounds the reads but sizes nothing. The stream must outlive the reader.
class TraceReader : public TraceSource {
 public:
  std::size_t next_batch(TraceColumns out, std::size_t n) final;
  [[nodiscard]] const char* name() const final { return name_.c_str(); }

 protected:
  TraceReader(std::istream& is, std::string name)
      : is_(is), name_(std::move(name)) {}
  /// The next record; throws std::runtime_error when it does not parse.
  virtual TraceRecord read_record() = 0;

  std::istream& is_;
  std::uint64_t count_ = 0;

 private:
  std::string name_;
  std::uint64_t read_ = 0;
};

/// Reader of the ppftrace text format (one record per line, see
/// write_trace); a bad header throws TraceFormatError on construction.
class TextTraceReader final : public TraceReader {
 public:
  explicit TextTraceReader(std::istream& is, std::string name = "ppftrace");

 private:
  TraceRecord read_record() override;
};

/// Serialise records to a compact text form (one record per line) and back.
/// Used by the trace-capture example and the round-trip tests.
void write_trace(std::ostream& os, const std::vector<TraceRecord>& records);
std::vector<TraceRecord> read_trace(std::istream& is);

/// Materialise up to `max_records` records from a source.
std::vector<TraceRecord> collect(TraceSource& src, std::size_t max_records);

}  // namespace ppf::workload
