#include "workload/trace_binary.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace ppf::workload {
namespace {

constexpr char kMagic[8] = {'p', 'p', 'f', 'b', 't', 'r', '0', '2'};

}  // namespace

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

std::uint64_t get_varint(std::istream& is) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (int i = 0; i < 10; ++i) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof()) {
      throw std::runtime_error("truncated varint in binary trace");
    }
    v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return v;
    shift += 7;
  }
  throw std::runtime_error("overlong varint in binary trace");
}

void write_trace_binary(std::ostream& os,
                        const std::vector<TraceRecord>& records) {
  os.write(kMagic, sizeof(kMagic));
  put_varint(os, records.size());
  Pc prev_pc = 0;
  Addr prev_addr = 0;
  for (const TraceRecord& r : records) {
    const bool has_regs = r.dst != 0 || r.src1 != 0 || r.src2 != 0;
    const std::uint8_t head =
        static_cast<std::uint8_t>(static_cast<unsigned>(r.kind) |
                                  (r.taken ? 0x08u : 0u) |
                                  (r.serial ? 0x10u : 0u) |
                                  (has_regs ? 0x20u : 0u));
    os.put(static_cast<char>(head));
    put_varint(os, zigzag_encode(static_cast<std::int64_t>(r.pc - prev_pc)));
    prev_pc = r.pc;
    if (has_regs) {
      os.put(static_cast<char>(r.dst));
      os.put(static_cast<char>(r.src1));
      os.put(static_cast<char>(r.src2));
    }
    if (has_address(r.kind)) {
      put_varint(os,
                 zigzag_encode(static_cast<std::int64_t>(r.addr - prev_addr)));
      prev_addr = r.addr;
    } else if (r.kind == InstKind::Branch) {
      put_varint(os,
                 zigzag_encode(static_cast<std::int64_t>(r.target - r.pc)));
    }
  }
}

BinaryTraceReader::BinaryTraceReader(std::istream& is, std::string name)
    : TraceReader(is, std::move(name)) {
  char magic[8];
  is_.read(magic, sizeof(magic));
  if (is_.gcount() != sizeof(magic) ||
      !std::equal(magic, magic + sizeof(magic), kMagic)) {
    throw TraceFormatError("not a ppfb binary trace");
  }
  count_ = get_varint(is_);
}

TraceRecord BinaryTraceReader::read_record() {
  const int head = is_.get();
  if (head == std::char_traits<char>::eof()) {
    throw std::runtime_error("truncated binary trace");
  }
  const unsigned kind_bits = static_cast<unsigned>(head) & 0x07u;
  if (kind_bits > static_cast<unsigned>(InstKind::SwPrefetch)) {
    throw std::runtime_error("invalid instruction kind in binary trace");
  }
  TraceRecord r;
  r.kind = static_cast<InstKind>(kind_bits);
  r.taken = (head & 0x08) != 0;
  r.serial = (head & 0x10) != 0;
  r.pc = prev_pc_ + static_cast<Pc>(zigzag_decode(get_varint(is_)));
  prev_pc_ = r.pc;
  if ((head & 0x20) != 0) {
    const int d = is_.get(), s1 = is_.get(), s2 = is_.get();
    if (s2 == std::char_traits<char>::eof()) {
      throw std::runtime_error("truncated binary trace");
    }
    r.dst = static_cast<std::uint8_t>(d & 0x1F);
    r.src1 = static_cast<std::uint8_t>(s1 & 0x1F);
    r.src2 = static_cast<std::uint8_t>(s2 & 0x1F);
  }
  if (has_address(r.kind)) {
    r.addr = prev_addr_ + static_cast<Addr>(zigzag_decode(get_varint(is_)));
    prev_addr_ = r.addr;
  } else if (r.kind == InstKind::Branch) {
    r.target = r.pc + static_cast<Addr>(zigzag_decode(get_varint(is_)));
  }
  return r;
}

std::vector<TraceRecord> read_trace_binary(std::istream& is) {
  BinaryTraceReader reader(is);
  return collect(reader, std::numeric_limits<std::size_t>::max());
}

std::unique_ptr<TraceReader> open_trace(std::istream& is, std::string name) {
  const std::istream::pos_type start = is.tellg();
  char head[sizeof(kMagic)];
  is.read(head, sizeof(head));
  const bool binary = is.gcount() == sizeof(head) &&
                      std::equal(head, head + sizeof(head), kMagic);
  is.clear();
  is.seekg(start);
  if (binary) return std::make_unique<BinaryTraceReader>(is, std::move(name));
  return std::make_unique<TextTraceReader>(is, std::move(name));
}

}  // namespace ppf::workload
