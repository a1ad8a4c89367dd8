#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ppf::obs {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string json_string(const std::string& s) {
  std::ostringstream os;
  write_json_string(os, s);
  return os.str();
}

namespace {

/// Deterministic float formatting shared by every export.
std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", v);
  return buf;
}

void write_event_counts(std::ostream& os, const RunObservation& obs) {
  os << '{';
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    if (k != 0) os << ',';
    os << json_string(to_string(static_cast<EventKind>(k))) << ':'
       << obs.event_counts[k];
  }
  os << '}';
}

}  // namespace

void write_trace_jsonl(std::ostream& os, const RunObservation& obs,
                       const ExportMeta& meta) {
  os << "{\"schema\":\"ppf.trace.v1\",\"workload\":"
     << json_string(meta.workload)
     << ",\"filter\":" << json_string(meta.filter)
     << ",\"events\":" << obs.events.size()
     << ",\"dropped\":" << obs.dropped_events << ",\"counts\":";
  write_event_counts(os, obs);
  os << "}\n";
  for (const TraceEvent& e : obs.events) {
    os << "{\"cycle\":" << e.cycle << ",\"event\":\"" << to_string(e.kind)
       << "\",\"line\":" << hex(e.line) << ",\"pc\":" << hex(e.pc)
       << ",\"source\":\"" << to_string(e.source) << "\"}\n";
  }
}

void write_trace_chrome(std::ostream& os, const RunObservation& obs,
                        const ExportMeta& meta) {
  // One process, one thread per prefetch source; 1 simulated cycle maps
  // to 1 microsecond of trace time (ts is in µs in the trace_event
  // spec — the absolute unit is arbitrary for a simulator). The
  // process_name/thread_name metadata events make Perfetto label the
  // tracks instead of showing bare pid/tid numbers.
  os << "{\"traceEvents\":["
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{"
        "\"name\":"
     << json_string("ppf " + meta.workload + "/" + meta.filter) << "}}";
  for (std::size_t s = 0; s < kNumPrefetchSources; ++s) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << (s + 1) << ",\"args\":{\"name\":"
       << json_string(std::string("prefetch:") +
                      to_string(static_cast<PrefetchSource>(s)))
       << "}}";
  }
  for (const TraceEvent& e : obs.events) {
    os << ",{\"name\":\"" << to_string(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"prefetch\",\"pid\":1,"
       << "\"tid\":" << (static_cast<unsigned>(e.source) + 1)
       << ",\"ts\":" << e.cycle << ",\"args\":{\"line\":" << hex(e.line)
       << ",\"pc\":" << hex(e.pc) << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
        "\"ppf.trace.v1\",\"workload\":"
     << json_string(meta.workload) << ",\"filter\":" << json_string(meta.filter)
     << ",\"dropped\":" << obs.dropped_events << ",\"counts\":";
  write_event_counts(os, obs);
  os << "}}\n";
}

void write_timeseries_json(std::ostream& os, const RunObservation& obs,
                           const ExportMeta& meta) {
  const TimeSeries& ts = obs.timeseries;
  os << "{\n  \"schema\": \"ppf.timeseries.v1\",\n  \"workload\": "
     << json_string(meta.workload)
     << ",\n  \"filter\": " << json_string(meta.filter)
     << ",\n  \"sample_interval\": " << ts.sample_interval
     << ",\n  \"columns\": [\"cycle_start\", \"cycle_end\"";
  for (const std::string& c : ts.columns) os << ", " << json_string(c);
  os << "],\n  \"rows\": [";
  for (std::size_t i = 0; i < ts.rows.size(); ++i) {
    const TimeSeriesRow& r = ts.rows[i];
    os << (i == 0 ? "\n    [" : ",\n    [") << r.start << ", " << r.end;
    for (std::uint64_t d : r.deltas) os << ", " << d;
    os << ']';
  }
  os << "\n  ],\n  \"final\": {\n    \"counters\": {";
  const MetricsSnapshot& fm = obs.final_metrics;
  for (std::size_t i = 0; i < fm.counters.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(fm.counters[i].first) << ": "
       << fm.counters[i].second;
  }
  os << "},\n    \"gauges\": {";
  for (std::size_t i = 0; i < fm.gauges.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(fm.gauges[i].first) << ": "
       << jnum(fm.gauges[i].second);
  }
  os << "},\n    \"histograms\": {";
  // p999 is deliberately not emitted here: ppf.timeseries.v1 is a
  // pinned byte format (cold-vs-snapshot and jobs=N identity tests
  // compare these files verbatim). The tail quantile is served by the
  // stats verb and the Prometheus exposition instead.
  for (std::size_t i = 0; i < fm.histograms.size(); ++i) {
    const HistogramSnapshot& h = fm.histograms[i];
    os << (i == 0 ? "" : ", ") << json_string(h.name)
       << ": {\"count\": " << h.count
       << ", \"mean\": " << jnum(h.mean) << ", \"p50\": " << jnum(h.p50)
       << ", \"p95\": " << jnum(h.p95) << ", \"p99\": " << jnum(h.p99)
       << ", \"max\": " << h.max << '}';
  }
  os << "}\n  },\n  \"event_counts\": ";
  write_event_counts(os, obs);
  os << "\n}\n";
}

namespace {

/// Dotted registry name -> Prometheus metric name: "serve.latency_us"
/// -> "ppf_serve_latency_us". Any byte outside [A-Za-z0-9_] becomes
/// '_' so every registry name yields a valid exposition name.
std::string prom_name(const std::string& name) {
  std::string out = "ppf_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << jnum(value) << '\n';
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    os << "# TYPE " << n << " summary\n"
       << n << "{quantile=\"0.5\"} " << jnum(h.p50) << '\n'
       << n << "{quantile=\"0.95\"} " << jnum(h.p95) << '\n'
       << n << "{quantile=\"0.99\"} " << jnum(h.p99) << '\n'
       << n << "{quantile=\"0.999\"} " << jnum(h.p999) << '\n'
       << n << "_sum " << jnum(h.mean * static_cast<double>(h.count)) << '\n'
       << n << "_count " << h.count << '\n';
  }
}

void write_spans_chrome(std::ostream& os,
                        const std::vector<ConnectionSpans>& conns,
                        const std::string& process_name) {
  // tid 0 is reserved for spans recorded outside any connection (the
  // flight recorder's conn=0 convention); named anyway so Perfetto
  // shows a label for every track it renders.
  os << "{\"traceEvents\":["
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{"
        "\"name\":"
     << json_string(process_name) << "}}";
  std::uint64_t dropped = 0;
  for (const ConnectionSpans& c : conns) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << c.conn << ",\"args\":{\"name\":"
       << json_string("conn " + std::to_string(c.conn)) << "}}";
    dropped += c.dropped;
  }
  for (const ConnectionSpans& c : conns) {
    for (const Span& s : c.spans) {
      os << ",{\"name\":\"" << to_string(s.name)
         << "\",\"ph\":\"X\",\"cat\":\"serve\",\"pid\":1,\"tid\":" << c.conn
         << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
         << ",\"args\":{\"request\":" << s.request
         << ",\"depth\":" << static_cast<unsigned>(s.depth) << "}}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
        "\"ppf.spans.v1\",\"connections\":"
     << conns.size() << ",\"dropped\":" << dropped << "}}\n";
}

}  // namespace ppf::obs

