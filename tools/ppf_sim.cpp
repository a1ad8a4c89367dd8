// ppf_sim — the standalone simulator driver.
//
// Runs one workload (a named Table 2 benchmark or a captured .ppftrace
// file) on a fully configurable machine and prints the complete result,
// optionally as CSV for scripting.
//
//   ppf_sim bench=mcf filter=pc instructions=2000000
//   ppf_sim trace=/tmp/app.ppftrace filter=pa csv=1
//   ppf_sim bench=mcf filter=pc trace_out=trace.json timeseries_out=ts.json
//   ppf_sim help=1
#include <fstream>
#include <iostream>
#include <vector>

#include "check/check.hpp"
#include "common/config.hpp"
#include "obs/export.hpp"
#include "sim/config_apply.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [bench=<name>|trace=<file>] "
            << "[csv=0|1] [config=0|1] [key=value ...]\n\n"
            << "observability keys (see docs/OBSERVABILITY.md):\n"
            << "  obs=0|1          — enable the metrics/trace recorder "
               "(implied by the keys below)\n"
            << "  trace_out=PATH (or --trace-out=PATH) — write the prefetch "
               "lifecycle trace: Chrome/Perfetto trace_event JSON, or JSONL "
               "(ppf.trace.v1) when PATH ends in .jsonl\n"
            << "  timeseries_out=PATH — write interval metric deltas "
               "(ppf.timeseries.v1 JSON)\n"
            << "  sample_interval=N — cycles per time-series row (default "
               "50000 when timeseries_out is set)\n\nworkloads:";
  for (const std::string& n : workload::benchmark_names()) {
    std::cerr << " " << n;
  }
  std::cerr << "\n\nmachine keys:\n";
  sim::print_override_keys(std::cerr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept the GNU-style spelling for the trace sink so scripts can say
  // --trace-out=trace.json; everything else is key=value.
  std::vector<std::string> arg_storage(argv, argv + argc);
  std::vector<char*> arg_ptrs;
  for (std::string& a : arg_storage) {
    const std::string prefix = "--trace-out=";
    if (a.rfind(prefix, 0) == 0) {
      a = "trace_out=" + a.substr(prefix.size());
    }
    arg_ptrs.push_back(a.data());
  }
  argv = arg_ptrs.data();

  ParamMap params;
  try {
    params = ParamMap::from_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  if (params.has("help")) return usage(argv[0]);

  // Reject typos up front, naming the offending key next to the full
  // accepted list — a mistyped knob must never silently run the default.
  const std::vector<std::string>& driver_keys = sim::ppf_sim_driver_keys();
  const std::string unknown = sim::first_unknown_key(params, driver_keys);
  if (!unknown.empty()) {
    std::cerr << "unknown key: " << unknown << "\n\n";
    return usage(argv[0]);
  }

  const std::string bench = params.get_string("bench", "mcf");
  const std::string trace_path = params.get_string("trace", "");
  const bool csv = params.get_bool("csv", false);
  const bool show_config = params.get_bool("config", true);
  const std::string trace_out = params.get_string("trace_out", "");
  const std::string timeseries_out = params.get_string("timeseries_out", "");
  std::uint64_t sample_interval = 0;
  bool obs_on = false;
  try {
    sample_interval = params.get_u64("sample_interval", 0);
    obs_on = params.get_bool("obs", false) || !trace_out.empty() ||
             !timeseries_out.empty() || sample_interval > 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  if (!timeseries_out.empty() && sample_interval == 0) {
    sample_interval = 50'000;
  }

  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 1'000'000;
  try {
    sim::apply_overrides(cfg, params, driver_keys);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  cfg.obs.enabled = obs_on;
  cfg.obs.sample_interval = sample_interval;

  std::ifstream trace_file;
  std::unique_ptr<workload::TraceSource> source;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open trace file: " << trace_path << "\n";
      return 1;
    }
    try {
      // Records are parsed as the core fetches them.
      source = std::make_unique<workload::TextTraceReader>(trace_file,
                                                           trace_path);
    } catch (const std::exception& e) {
      std::cerr << "bad trace file: " << e.what() << "\n";
      return 1;
    }
    cfg.warmup_instructions = 0;  // finite traces: measure everything
  } else {
    try {
      source = workload::make_benchmark(bench, cfg.seed);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage(argv[0]);
    }
  }

  sim::SimResult r;
  try {
    // One run reuses neither a trace arena nor a warmup snapshot, so the
    // trace streams: memory stays flat however long the run.
    r = sim::Simulator(cfg).run(*source);
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

  // Observability sinks. A path ending in .jsonl selects the line-based
  // ppf.trace.v1 format; anything else gets Chrome/Perfetto trace_event
  // JSON (load it at ui.perfetto.dev or chrome://tracing).
  if (r.observation != nullptr) {
    const obs::ExportMeta meta{r.workload, r.filter_name};
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      if (!f) {
        std::cerr << "cannot open " << trace_out << " for writing\n";
        return 1;
      }
      const bool jsonl = trace_out.size() >= 6 &&
                         trace_out.rfind(".jsonl") == trace_out.size() - 6;
      if (jsonl) {
        obs::write_trace_jsonl(f, *r.observation, meta);
      } else {
        obs::write_trace_chrome(f, *r.observation, meta);
      }
    }
    if (!timeseries_out.empty()) {
      std::ofstream f(timeseries_out);
      if (!f) {
        std::cerr << "cannot open " << timeseries_out << " for writing\n";
        return 1;
      }
      obs::write_timeseries_json(f, *r.observation, meta);
    }
  }

  if (csv) {
    sim::result_table(r).write_csv(std::cout);
  } else {
    if (show_config) {
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
