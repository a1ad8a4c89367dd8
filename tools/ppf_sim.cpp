// ppf_sim — the standalone simulator driver.
//
// Runs one workload (a named Table 2 benchmark, a mix of them, or a
// captured ppftrace/ppfb file) on a fully configurable machine and
// prints the complete result, optionally as CSV for scripting.
//
//   ppf_sim bench=mcf filter=pc instructions=2000000
//   ppf_sim bench=em3d+gzip/100000 filter=static
//   ppf_sim trace=/tmp/app.ppftrace filter=pa csv=1
//   ppf_sim bench=mcf filter=pc trace_out=trace.json timeseries_out=ts.json
//   ppf_sim help=1
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "check/check.hpp"
#include "common/config.hpp"
#include "obs/recorder.hpp"
#include "sim/config_apply.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "workload/trace.hpp"
#include "workload/trace_binary.hpp"

using namespace ppf;

namespace {

const std::vector<sim::DriverKey> kKeys = {
    {"bench", "workload (default mcf; filter=static profiles a mix's first "
              "program)",
     sim::benchmarks(1)},
    {"trace", "run a captured ppftrace text or ppfb binary file instead",
     sim::kText},
    {"csv", "print the result as CSV (default 0)", sim::kBool},
    {"config", "echo the machine config first (default 1)", sim::kBool},
    {"obs", "enable the metrics/trace recorder (implied by the keys below)",
     sim::kBool},
    {"trace_out", "write the prefetch lifecycle trace to PATH: "
                  "Chrome/Perfetto trace_event JSON, or ppf.trace.v1 lines "
                  "when PATH ends in .jsonl",
     sim::kText},
    {"timeseries_out", "write interval metric deltas to PATH "
                       "(ppf.timeseries.v1 JSON)",
     sim::kText},
    {"sample_interval", "cycles per time-series row (default 50000 when "
                        "timeseries_out is set)",
     sim::kCount},
};

}  // namespace

int main(int argc, char** argv) {
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 1'000'000;
  sim::CommandLine cli(kKeys, &cfg);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;
  const std::string bench = args->get_string("bench", "mcf");
  const std::string trace_path = args->get_string("trace", "");
  const sim::ObservationSinks sinks = sim::ObservationSinks::read(*args, cfg);

  std::ifstream trace_file;
  std::unique_ptr<workload::TraceSource> source;
  if (!trace_path.empty()) {
    trace_file.open(trace_path, std::ios::binary);
    if (!trace_file) {
      std::cerr << "cannot open trace file: " << trace_path << "\n";
      return 1;
    }
    try {
      // Records are parsed as the core fetches them.
      source = workload::open_trace(trace_file, trace_path);
    } catch (const std::exception& e) {
      std::cerr << "bad trace file: " << e.what() << "\n";
      return 1;
    }
    cfg.warmup_instructions = 0;  // finite traces: measure everything
  }

  sim::SimResult r;
  try {
    // One run reuses neither a trace arena nor a warmup snapshot, so the
    // trace streams: memory stays flat however long the run.
    r = source != nullptr ? sim::Simulator(cfg).run(*source)
                          : sim::run_benchmark(cfg, bench);
  } catch (const check::CheckViolation& v) {
    // check=final/paranoid found corrupted machine state: report the
    // structured failure (component path, invariant ID, cycle) and fail
    // the run cleanly — docs/CHECKING.md lists every invariant.
    std::cerr << v.failure().format() << "\n";
    return 1;
  } catch (const workload::TraceFormatError& e) {
    std::cerr << "bad trace file: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "simulation failed: " << e.what() << "\n";
    return 1;
  }

  // Observability sinks: load the Chrome/Perfetto trace at
  // ui.perfetto.dev or chrome://tracing.
  try {
    sinks.write(r);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  if (args->get_bool("csv", false)) {
    sim::result_table(r).write_csv(std::cout);
  } else {
    if (args->get_bool("config", true)) {
      sim::print_config(std::cout, cfg);
      std::cout << "\n";
    }
    sim::print_result(std::cout, r);
    if (r.observation != nullptr) {
      const obs::RunObservation& o = *r.observation;
      std::cout << "\nobservability:\n  trace events        "
                << o.events.size();
      if (o.dropped_events > 0) {
        std::cout << " (+" << o.dropped_events << " dropped)";
      }
      std::cout << "\n  issued/filtered     "
                << o.event_counts[static_cast<std::size_t>(
                       obs::EventKind::Issued)]
                << " / "
                << o.event_counts[static_cast<std::size_t>(
                       obs::EventKind::Filtered)]
                << "\n  fills               "
                << o.event_counts[static_cast<std::size_t>(
                       obs::EventKind::Fill)]
                << "\n  first-use/dead-evict "
                << o.event_counts[static_cast<std::size_t>(
                       obs::EventKind::FirstUse)]
                << " / "
                << o.event_counts[static_cast<std::size_t>(
                       obs::EventKind::EvictDead)]
                << "\n  timeseries rows     " << o.timeseries.rows.size()
                << "\n";
    }
  }
  return 0;
}
