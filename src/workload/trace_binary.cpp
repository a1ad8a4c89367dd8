#include "workload/trace_binary.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace ppf::workload {
namespace {

constexpr char kMagic[8] = {'p', 'p', 'f', 'b', 't', 'r', '0', '2'};

bool is_mem_kind(InstKind k) {
  return k == InstKind::Load || k == InstKind::Store ||
         k == InstKind::SwPrefetch;
}

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
    if (is_mem_kind(r.kind)) {
      put_varint(os,
                 zigzag_encode(static_cast<std::int64_t>(r.addr - prev_addr)));
      prev_addr = r.addr;
    } else if (r.kind == InstKind::Branch) {
      put_varint(os,
                 zigzag_encode(static_cast<std::int64_t>(r.target - r.pc)));
    }
  }
}

std::vector<TraceRecord> read_trace_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (is.gcount() != sizeof(magic) ||
      !std::equal(magic, magic + sizeof(magic), kMagic)) {
    throw std::runtime_error("not a ppfb binary trace");
  }
  const std::uint64_t count = get_varint(is);
  // The count is read from the input, so it may not size an allocation:
  // a 10-byte header could ask for any amount. Reserve at most a small
  // cap and let push_back grow the vector as records actually arrive.
  constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 16;
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(std::min(count, kReserveCap)));
  Pc prev_pc = 0;
  Addr prev_addr = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const int head = is.get();
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
    r.pc = prev_pc + static_cast<Pc>(zigzag_decode(get_varint(is)));
    prev_pc = r.pc;
    if ((head & 0x20) != 0) {
      const int d = is.get(), s1 = is.get(), s2 = is.get();
      if (s2 == std::char_traits<char>::eof()) {
        throw std::runtime_error("truncated binary trace");
      }
      r.dst = static_cast<std::uint8_t>(d & 0x1F);
      r.src1 = static_cast<std::uint8_t>(s1 & 0x1F);
      r.src2 = static_cast<std::uint8_t>(s2 & 0x1F);
    }
    if (is_mem_kind(r.kind)) {
      r.addr = prev_addr + static_cast<Addr>(zigzag_decode(get_varint(is)));
      prev_addr = r.addr;
    } else if (r.kind == InstKind::Branch) {
      r.target = r.pc + static_cast<Addr>(zigzag_decode(get_varint(is)));
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace ppf::workload
