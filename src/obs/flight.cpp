#include "obs/flight.hpp"

#include <unistd.h>

#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"

namespace ppf::obs {

namespace {

/// Copy `s` into `dst` keeping only printable ASCII minus the two JSON
/// string delimiters — safe to splice into a snprintf'd JSON line from
/// a signal handler.
void sanitize_into(char* dst, std::size_t cap, const std::string& s) {
  std::size_t n = 0;
  for (char c : s) {
    if (n + 1 >= cap) break;
    const unsigned char u = static_cast<unsigned char>(c);
    dst[n++] = (u < 0x20 || u > 0x7e || c == '"' || c == '\\') ? ' ' : c;
  }
  dst[n] = '\0';
}

void write_all(int fd, const char* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return;  // best-effort: a failed crash dump stays silent
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t span_capacity,
                               std::size_t note_capacity)
    : spans_(span_capacity == 0 ? 1 : span_capacity),
      notes_(note_capacity == 0 ? 1 : note_capacity) {}

void FlightRecorder::note_span(std::uint32_t conn, const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_[spans_seen_ % spans_.size()] = FlightSpan{conn, s};
  ++spans_seen_;
}

void FlightRecorder::note(std::uint64_t t_us, std::string kind,
                          std::string message) {
  std::lock_guard<std::mutex> lk(mu_);
  notes_[notes_seen_ % notes_.size()] =
      FlightNote{t_us, std::move(kind), std::move(message)};
  ++notes_seen_;
}

std::uint64_t FlightRecorder::spans_seen() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_seen_;
}

std::uint64_t FlightRecorder::notes_seen() const {
  std::lock_guard<std::mutex> lk(mu_);
  return notes_seen_;
}

void FlightRecorder::dump(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t span_kept =
      spans_seen_ < spans_.size() ? spans_seen_ : spans_.size();
  const std::uint64_t note_kept =
      notes_seen_ < notes_.size() ? notes_seen_ : notes_.size();
  os << "{\"schema\":\"ppf.flight.v1\",\"spans_seen\":" << spans_seen_
     << ",\"spans_retained\":" << span_kept
     << ",\"notes_seen\":" << notes_seen_
     << ",\"notes_retained\":" << note_kept << "}\n";
  for (std::uint64_t i = notes_seen_ - note_kept; i < notes_seen_; ++i) {
    const FlightNote& n = notes_[i % notes_.size()];
    os << "{\"type\":\"note\",\"t_us\":" << n.t_us
       << ",\"kind\":" << json_string(n.kind)
       << ",\"message\":" << json_string(n.message)
       << "}\n";
  }
  for (std::uint64_t i = spans_seen_ - span_kept; i < spans_seen_; ++i) {
    const FlightSpan& f = spans_[i % spans_.size()];
    os << "{\"type\":\"span\",\"conn\":" << f.conn
       << ",\"request\":" << f.span.request << ",\"name\":\""
       << to_string(f.span.name) << "\",\"start_us\":" << f.span.start_us
       << ",\"dur_us\":" << f.span.dur_us
       << ",\"depth\":" << static_cast<unsigned>(f.span.depth) << "}\n";
  }
}

std::string FlightRecorder::dump_string() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

void FlightRecorder::crash_dump(int fd) const noexcept {
  // Signal context: best-effort only. If the crashing thread holds the
  // recorder lock we emit just a header rather than deadlocking.
  char buf[512];
  if (!mu_.try_lock()) {
    const int n = std::snprintf(buf, sizeof(buf),
                                "{\"schema\":\"ppf.flight.v1\","
                                "\"locked\":true}\n");
    if (n > 0) write_all(fd, buf, static_cast<std::size_t>(n));
    return;
  }
  const std::uint64_t span_kept =
      spans_seen_ < spans_.size() ? spans_seen_ : spans_.size();
  const std::uint64_t note_kept =
      notes_seen_ < notes_.size() ? notes_seen_ : notes_.size();
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"schema\":\"ppf.flight.v1\",\"spans_seen\":%llu,"
                        "\"spans_retained\":%llu,\"notes_seen\":%llu,"
                        "\"notes_retained\":%llu}\n",
                        static_cast<unsigned long long>(spans_seen_),
                        static_cast<unsigned long long>(span_kept),
                        static_cast<unsigned long long>(notes_seen_),
                        static_cast<unsigned long long>(note_kept));
  if (n > 0) write_all(fd, buf, static_cast<std::size_t>(n));
  char kind[64];
  char msg[256];
  for (std::uint64_t i = notes_seen_ - note_kept; i < notes_seen_; ++i) {
    const FlightNote& note = notes_[i % notes_.size()];
    sanitize_into(kind, sizeof(kind), note.kind);
    sanitize_into(msg, sizeof(msg), note.message);
    n = std::snprintf(buf, sizeof(buf),
                      "{\"type\":\"note\",\"t_us\":%llu,\"kind\":\"%s\","
                      "\"message\":\"%s\"}\n",
                      static_cast<unsigned long long>(note.t_us), kind, msg);
    if (n > 0) write_all(fd, buf, static_cast<std::size_t>(n));
  }
  for (std::uint64_t i = spans_seen_ - span_kept; i < spans_seen_; ++i) {
    const FlightSpan& f = spans_[i % spans_.size()];
    n = std::snprintf(
        buf, sizeof(buf),
        "{\"type\":\"span\",\"conn\":%u,\"request\":%llu,\"name\":\"%s\","
        "\"start_us\":%llu,\"dur_us\":%u,\"depth\":%u}\n",
        f.conn, static_cast<unsigned long long>(f.span.request),
        to_string(f.span.name),
        static_cast<unsigned long long>(f.span.start_us), f.span.dur_us,
        static_cast<unsigned>(f.span.depth));
    if (n > 0) write_all(fd, buf, static_cast<std::size_t>(n));
  }
  mu_.unlock();
}

}  // namespace ppf::obs
