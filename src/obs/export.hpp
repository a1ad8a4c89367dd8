// ppf::obs — observation export writers.
//
// Three stable formats (schemas documented in docs/OBSERVABILITY.md):
//
//   * ppf.trace.v1 (JSONL): one header line, then one JSON object per
//     lifecycle event — grep/jq-friendly.
//   * Chrome trace_event JSON: loadable directly in Perfetto
//     (ui.perfetto.dev) or chrome://tracing; lifecycle events become
//     instant events on one track per prefetch source.
//   * ppf.timeseries.v1 JSON: interval counter deltas as a column/row
//     table plus the final metrics snapshot.
//
// All output is deterministic: simulated cycles only, fixed key order,
// fixed float formatting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace ppf::obs {

/// Write `s` as a JSON string literal: quoted, with `"`, `\`, newline,
/// tab and carriage return backslash-escaped and every other control
/// byte as \u00XX. The one escaper behind every JSON document ppf writes
/// (exports, flight dumps, runlab payloads, serve responses).
void write_json_string(std::ostream& os, const std::string& s);

/// write_json_string's output as a string, for insertion chains.
std::string json_string(const std::string& s);

/// Context stamped into export headers (never into event payloads).
struct ExportMeta {
  std::string workload;
  std::string filter;
};

void write_trace_jsonl(std::ostream& os, const RunObservation& obs,
                       const ExportMeta& meta);

void write_trace_chrome(std::ostream& os, const RunObservation& obs,
                        const ExportMeta& meta);

void write_timeseries_json(std::ostream& os, const RunObservation& obs,
                           const ExportMeta& meta);

/// Prometheus text exposition (version 0.0.4) of a registry snapshot:
/// counters and gauges as single samples, histograms as summaries with
/// 0.5/0.95/0.99/0.999 quantiles plus _sum/_count. Metric names are the
/// dotted registry names munged to [a-z0-9_] with a "ppf_" prefix
/// ("serve.latency_us" -> "ppf_serve_latency_us"). Served live by the
/// daemon's `metrics` verb.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snap);

/// One connection's recorded request spans, for the whole-soak Chrome
/// timeline (ppf_serve span_out=).
struct ConnectionSpans {
  std::uint32_t conn = 0;
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
};

/// Chrome/Perfetto trace_event export of request spans: one process
/// (named `process_name`), one named thread per connection, spans as
/// complete ("X") duration events so a whole soak opens as one
/// timeline.
void write_spans_chrome(std::ostream& os,
                        const std::vector<ConnectionSpans>& conns,
                        const std::string& process_name);

}  // namespace ppf::obs
