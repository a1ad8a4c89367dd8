#include "runlab/sinks.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "sim/report.hpp"

namespace ppf::runlab {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_metrics_json(std::ostream& os, const sim::SimResult& r) {
  os << "{"
     << "\"instructions\":" << r.core.instructions << ","
     << "\"cycles\":" << r.core.cycles << ","
     << "\"ipc\":" << sim::fmt(r.ipc(), 6) << ","
     << "\"l1d_miss_rate\":" << sim::fmt(r.l1d_miss_rate(), 6) << ","
     << "\"l2_miss_rate\":" << sim::fmt(r.l2_miss_rate(), 6) << ","
     << "\"prefetch_issued\":" << r.prefetch_issued.total() << ","
     << "\"prefetch_good\":" << r.good_total() << ","
     << "\"prefetch_bad\":" << r.bad_total() << ","
     << "\"filtered\":" << r.filter_rejected << ","
     << "\"recoveries\":" << r.filter_recoveries << ","
     << "\"squashed\":" << r.prefetch_squashed << ","
     << "\"bus_transfers\":" << r.bus_transfers << ","
     << "\"bus_prefetch_transfers\":" << r.bus_prefetch_transfers << ","
     << "\"avg_load_latency\":" << sim::fmt(r.avg_load_latency, 3) << ","
     << "\"energy_nj\":" << sim::fmt(r.energy.total_nj(), 3) << "}";
}

void write_json(std::ostream& os, const RunReport& rep) {
  os << "{\"schema\":\"ppf.runlab.v1\",\"job_count\":" << rep.results.size()
     << ",\"results\":[";
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const JobResult& r = rep.results[i];
    if (i != 0) os << ",";
    os << "\n{\"index\":" << r.job.index << ",\"benchmark\":";
    write_json_string(os, r.job.benchmark);
    os << ",\"variant\":";
    write_json_string(os, r.job.variant);
    os << ",\"filter\":";
    write_json_string(os, r.job.filter_name);
    os << ",\"seed\":" << r.job.seed
       << ",\"ok\":" << (r.ok ? "true" : "false");
    if (r.cancelled) os << ",\"cancelled\":true";
    if (r.ok) {
      os << ",\"metrics\":";
      write_metrics_json(os, r.result);
    } else {
      os << ",\"error\":";
      write_json_string(os, r.error);
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string to_json(const RunReport& rep) {
  std::ostringstream os;
  write_json(os, rep);
  return os.str();
}

void write_csv(std::ostream& os, const RunReport& rep) {
  std::vector<std::string> headers = {"index", "variant", "seed", "ok",
                                      "error"};
  const std::vector<std::string>& result_headers = sim::result_row_headers();
  headers.insert(headers.end(), result_headers.begin(), result_headers.end());
  sim::Table t(std::move(headers));
  for (const JobResult& r : rep.results) {
    std::vector<std::string> row = {std::to_string(r.job.index), r.job.variant,
                                    std::to_string(r.job.seed),
                                    r.ok ? "1" : "0", r.error};
    std::vector<std::string> cells =
        r.ok ? sim::result_row(r.result)
             : std::vector<std::string>(result_headers.size());
    if (!r.ok) {
      // Keep the axis labels legible even for failed slots.
      cells[0] = r.job.benchmark;
      cells[1] = r.job.filter_name;
    }
    row.insert(row.end(), cells.begin(), cells.end());
    t.add_row(std::move(row));
  }
  t.write_csv(os);
}

void write_telemetry_json(std::ostream& os, const RunReport& rep) {
  const RunTelemetry& t = rep.telemetry;
  os << "{\"schema\":\"ppf.telemetry.v1\","
     << "\"jobs\":" << t.total_jobs << ","
     << "\"failed\":" << t.failed_jobs << ","
     << "\"cancelled\":" << t.cancelled_jobs << ","
     << "\"workers\":" << t.workers << ","
     << "\"wall_ms\":" << sim::fmt(t.wall_ms, 3) << ","
     << "\"busy_ms\":" << sim::fmt(t.busy_ms, 3) << ","
     << "\"jobs_per_sec\":" << sim::fmt(t.jobs_per_sec, 3) << ","
     << "\"utilization\":" << sim::fmt(t.utilization, 4) << ","
     << "\"instructions\":" << t.instructions << ","
     << "\"mips\":" << sim::fmt(t.mips, 3) << ","
     << "\"arenas_built\":" << t.arenas_built << ","
     << "\"snapshots_built\":" << t.snapshots_built << ","
     << "\"snapshot_resumes\":" << t.snapshot_resumes << ","
     << "\"trace_evictions\":" << t.trace_evictions << ","
     << "\"snapshot_evictions\":" << t.snapshot_evictions << ","
     // Stage-kernel breakdown (occupancy-model jobs contribute record
     // counts and sampled ns estimates; dataflow jobs contribute zero).
     << "\"stages\":{"
     << "\"retire\":{\"records\":" << t.stages.retire_records
     << ",\"ns\":" << sim::fmt(t.stages.retire_ns, 0) << "},"
     << "\"probe\":{\"records\":" << t.stages.probe_records
     << ",\"ns\":" << sim::fmt(t.stages.probe_ns, 0) << "},"
     << "\"fetch\":{\"records\":" << t.stages.fetch_records
     << ",\"ns\":" << sim::fmt(t.stages.fetch_ns, 0) << "},"
     << "\"memsys\":{\"records\":" << t.stages.memsys_records
     << ",\"ns\":" << sim::fmt(t.stages.memsys_ns, 0) << "}},"
     << "\"per_job\":[";
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const JobResult& r = rep.results[i];
    if (i != 0) os << ",";
    os << "\n{\"index\":" << r.job.index << ",\"benchmark\":";
    write_json_string(os, r.job.benchmark);
    os << ",\"filter\":";
    write_json_string(os, r.job.filter_name);
    os << ",\"seed\":" << r.job.seed << ",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"wall_ms\":" << sim::fmt(r.wall_ms, 3)
       << ",\"instructions\":" << (r.ok ? r.result.core.instructions : 0)
       << ",\"mips\":" << sim::fmt(r.mips, 3) << "}";
  }
  os << "\n]}\n";
}

std::string telemetry_to_json(const RunReport& rep) {
  std::ostringstream os;
  write_telemetry_json(os, rep);
  return os.str();
}

void print_telemetry(std::ostream& os, const RunTelemetry& t) {
  os << "runlab: " << t.total_jobs << " jobs";
  if (t.failed_jobs > 0) os << " (" << t.failed_jobs << " failed)";
  if (t.cancelled_jobs > 0) os << " (" << t.cancelled_jobs << " cancelled)";
  os << " on " << t.workers << " workers in " << sim::fmt(t.wall_ms / 1000.0, 2)
     << " s  |  " << sim::fmt(t.jobs_per_sec, 2) << " jobs/s, "
     << sim::fmt(t.mips, 1) << " MIPS, worker busy "
     << sim::fmt(t.busy_ms / 1000.0, 2) << " s, utilization "
     << sim::fmt_pct(t.utilization) << "\n";
  if (t.arenas_built > 0 || t.snapshot_resumes > 0) {
    os << "runlab: " << t.arenas_built << " trace arenas, "
       << t.snapshots_built << " warmup snapshots, " << t.snapshot_resumes
       << " jobs resumed from a snapshot";
    if (t.trace_evictions > 0 || t.snapshot_evictions > 0) {
      os << ", " << t.trace_evictions << "+" << t.snapshot_evictions
         << " cache evictions";
    }
    os << "\n";
  }
}

}  // namespace ppf::runlab
