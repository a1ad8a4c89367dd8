#include "workload/trace.hpp"

#include <istream>
#include <limits>
#include <ostream>

namespace ppf::workload {

bool TraceSource::next(TraceRecord& out) {
  ColumnBuffer<1> one;
  if (next_batch(one.columns(), 1) == 0) return false;
  out = one.columns().get(0);
  return true;
}

VectorTrace::VectorTrace(std::vector<TraceRecord> records, std::string name)
    : records_(std::move(records)), name_(std::move(name)) {}

std::size_t VectorTrace::next_batch(TraceColumns out, std::size_t n) {
  const std::size_t got = std::min(n, records_.size() - pos_);
  for (std::size_t i = 0; i < got; ++i) out.put(i, records_[pos_ + i]);
  pos_ += got;
  return got;
}

void write_trace(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << "ppftrace v2 " << records.size() << "\n";
  for (const TraceRecord& r : records) {
    os << std::hex << r.pc << ' ' << std::dec
       << static_cast<unsigned>(r.kind) << ' ' << std::hex << r.addr << ' '
       << r.target << ' ' << std::dec << (r.taken ? 1 : 0) << ' '
       << (r.serial ? 1 : 0) << ' ' << static_cast<unsigned>(r.dst) << ' '
       << static_cast<unsigned>(r.src1) << ' '
       << static_cast<unsigned>(r.src2) << "\n";
  }
}

std::size_t TraceReader::next_batch(TraceColumns out, std::size_t n) {
  std::size_t got = 0;
  for (; got < n && read_ < count_; ++got, ++read_) {
    try {
      out.put(got, read_record());
    } catch (const std::runtime_error& e) {
      throw TraceFormatError(std::string(e.what()) + " at record " +
                             std::to_string(read_));
    }
  }
  return got;
}

TextTraceReader::TextTraceReader(std::istream& is, std::string name)
    : TraceReader(is, std::move(name)) {
  std::string magic, version;
  if (!(is_ >> magic >> version >> count_) || magic != "ppftrace" ||
      version != "v2") {
    throw TraceFormatError("not a ppftrace v2 stream");
  }
}

TraceRecord TextTraceReader::read_record() {
  TraceRecord r;
  unsigned kind = 0;
  int taken = 0;
  int serial = 0;
  unsigned dst = 0, src1 = 0, src2 = 0;
  if (!(is_ >> std::hex >> r.pc >> std::dec >> kind >> std::hex >> r.addr >>
        r.target >> std::dec >> taken >> serial >> dst >> src1 >> src2)) {
    throw std::runtime_error("truncated ppftrace stream");
  }
  if (dst > 31 || src1 > 31 || src2 > 31) {
    throw std::runtime_error("invalid register in trace");
  }
  r.serial = serial != 0;
  r.dst = static_cast<std::uint8_t>(dst);
  r.src1 = static_cast<std::uint8_t>(src1);
  r.src2 = static_cast<std::uint8_t>(src2);
  if (kind > static_cast<unsigned>(InstKind::SwPrefetch)) {
    throw std::runtime_error("invalid instruction kind in trace");
  }
  r.kind = static_cast<InstKind>(kind);
  r.taken = taken != 0;
  return r;
}

std::vector<TraceRecord> read_trace(std::istream& is) {
  TextTraceReader reader(is);
  return collect(reader, std::numeric_limits<std::size_t>::max());
}

std::vector<TraceRecord> collect(TraceSource& src, std::size_t max_records) {
  // Grows as records arrive: `max_records` may be a bound, not a size.
  std::vector<TraceRecord> out;
  ColumnBuffer<256> buf;
  while (out.size() < max_records) {
    const std::size_t want = std::min(max_records - out.size(), buf.pc.size());
    const std::size_t got = src.next_batch(buf.columns(), want);
    for (std::size_t i = 0; i < got; ++i) out.push_back(buf.columns().get(i));
    if (got < want) break;
  }
  return out;
}

}  // namespace ppf::workload
