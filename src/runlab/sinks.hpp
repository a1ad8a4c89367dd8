// runlab: structured result sinks.
//
// The JSON and CSV payloads are deterministic: jobs appear in submission
// order with fixed key order and fixed number formatting, and no
// wall-clock field is included — the same sweep produces byte-identical
// output whether it ran on 1 worker or 16. Telemetry (timings, worker
// utilization) is reported separately via print_telemetry.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/export.hpp"
#include "runlab/runner.hpp"

namespace ppf::runlab {

/// Whole-report JSON document ("ppf.runlab.v1" schema).
void write_json(std::ostream& os, const RunReport& rep);
std::string to_json(const RunReport& rep);

/// One result's deterministic metrics object ({"instructions":...,...}),
/// exactly as it appears inside the ppf.runlab.v1 payload. Shared with
/// the serve protocol so a daemon response body and a batch-sink row for
/// the same config are the same bytes.
void write_metrics_json(std::ostream& os, const sim::SimResult& r);

/// JSON string escaping used by every runlab/serve payload writer.
using obs::write_json_string;

/// CSV: the sweep axes (index, variant, seed, ok, error) followed by the
/// canonical sim::result_row columns.
void write_csv(std::ostream& os, const RunReport& rep);

/// Human-readable run telemetry (wall time, throughput, utilization).
void print_telemetry(std::ostream& os, const RunTelemetry& t);

/// Machine-readable throughput telemetry ("ppf.telemetry.v1" schema):
/// batch totals (wall time, MIPS, cache-reuse counters) plus per-job
/// timings. Unlike the result payload this IS wall-clock dependent — it
/// exists for benchmarking the harness itself (BENCH_throughput.json).
void write_telemetry_json(std::ostream& os, const RunReport& rep);
std::string telemetry_to_json(const RunReport& rep);

}  // namespace ppf::runlab
