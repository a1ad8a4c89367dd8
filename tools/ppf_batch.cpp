// ppf_batch — parallel sweep driver on the runlab subsystem.
//
// Expands a (benchmark x filter x seed) grid over a fully configurable
// machine, runs it on a worker pool, and writes the ordered results as
// JSON (and optionally CSV). Output is byte-identical for any jobs=N;
// telemetry and the live progress line go to stderr.
//
//   ppf_batch bench=mcf,em3d,gzip filter=none,pa,pc,adaptive seeds=4
//             jobs=8 out=results.json  (one line)
//   ppf_batch bench=all filter=none,pc csv=results.csv instructions=500000
//   ppf_batch help=1
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hpp"
#include "common/shutdown.hpp"
#include "obs/export.hpp"
#include "registry/registry.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "sim/config_apply.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [key=value ...]\n\n"
      << "sweep keys:\n"
      << "  bench=a,b,...   — benchmarks to run, or 'all' (default all)\n"
      << "  filter=a,b,...  — filter registry keys (default none,pa,pc)\n"
      << "  seeds=N         — N seeds: base seed, base+1, ... (default 1)\n"
      << "  seed_list=a,b   — explicit seed values (overrides seeds=)\n"
      << "execution keys:\n"
      << "  jobs=N          — worker threads (default: hardware threads)\n"
      << "  timeout_ms=X    — soft per-job timeout; overruns become error "
         "records\n"
      << "  progress=auto|0|1|plain|fancy — stderr progress style. auto "
         "(default) picks fancy (\\r rewrites + heartbeats) on a TTY and "
         "plain (one completion line per job, no control sequences) "
         "otherwise; 0 silences it\n"
      << "  trace_cache=0|1 — materialize each distinct trace once and share "
         "it across jobs (default 1; results identical either way)\n"
      << "  warmup_share=0|1 — run warmup once per distinct warmup-relevant "
         "config and clone the warm machine into matching jobs, where two or "
         "more share it (default 1; results identical either way)\n"
      << "  trace_cache_mb=N — LRU byte budget for resident trace arenas "
         "(default 0 = unbounded; eviction never changes results)\n"
      << "  snapshot_cache_mb=N — LRU byte budget for warmup snapshots "
         "(default 0 = unbounded)\n"
      << "  cancel_after=N  — request shutdown after N completed jobs "
         "(deterministic stand-in for SIGINT/SIGTERM; remaining jobs "
         "become cancelled records, sinks still flush, exit stays 0)\n"
      << "output keys:\n"
      << "  out=PATH|-      — ordered JSON results (default '-' = stdout)\n"
      << "  csv=PATH        — also write CSV\n"
      << "  telemetry_json=PATH (or --telemetry-json=PATH) — wall-clock "
         "throughput telemetry (ppf.telemetry.v1 / BENCH_throughput.json "
         "schema)\n"
      << "observability keys (see docs/OBSERVABILITY.md):\n"
      << "  obs=0|1         — per-job metrics recording (implied by the "
         "sinks below)\n"
      << "  trace_out=PREFIX (or --trace-out=PREFIX) — per-job lifecycle "
         "trace files PREFIX.<index>.json (Chrome trace_event; .jsonl "
         "prefix suffix selects ppf.trace.v1 lines)\n"
      << "  timeseries_out=PREFIX — per-job interval metrics "
         "PREFIX.<index>.timeseries.json (ppf.timeseries.v1)\n"
      << "  sample_interval=N — cycles per time-series row (default 50000 "
         "when timeseries_out is set)\n"
      << "\n--progress is shorthand for progress=1; with it the stderr "
         "line also carries live MIPS/ETA heartbeats mid-job\n"
      << "\nworkloads:";
  for (const std::string& n : workload::benchmark_names()) {
    std::cerr << " " << n;
  }
  std::cerr << "\n\nmachine keys:\n";
  for (const sim::OverrideDoc& d : sim::override_docs()) {
    std::cerr << "  " << d.key << " — " << d.help << "\n";
  }
  return 2;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept GNU-style spellings for a few flags so CI scripts can say
  // --telemetry-json=out.json / --trace-out=pfx / --progress; everything
  // else is key=value.
  std::vector<std::string> arg_storage(argv, argv + argc);
  std::vector<char*> arg_ptrs;
  for (std::string& a : arg_storage) {
    const std::string telemetry_prefix = "--telemetry-json=";
    const std::string trace_prefix = "--trace-out=";
    const std::string progress_prefix = "--progress=";
    if (a.rfind(telemetry_prefix, 0) == 0) {
      a = "telemetry_json=" + a.substr(telemetry_prefix.size());
    } else if (a.rfind(trace_prefix, 0) == 0) {
      a = "trace_out=" + a.substr(trace_prefix.size());
    } else if (a.rfind(progress_prefix, 0) == 0) {
      a = "progress=" + a.substr(progress_prefix.size());
    } else if (a == "--progress") {
      a = "progress=1";
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

  const std::vector<std::string>& driver_keys = sim::ppf_batch_driver_keys();
  const std::string unknown = sim::first_unknown_key(params, driver_keys);
  if (!unknown.empty()) {
    std::cerr << "unknown key: " << unknown << "\n\n";
    return usage(argv[0]);
  }

  // Machine config: every non-driver key is an override on Table 1.
  ParamMap machine;
  for (const auto& [k, v] : params.entries()) {
    if (std::find(driver_keys.begin(), driver_keys.end(), k) ==
        driver_keys.end()) {
      machine.set(k, v);
    }
  }
  runlab::SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 1'000'000;
  try {
    sim::apply_overrides(spec.base, machine);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  // Benchmark axis.
  const std::string bench = params.get_string("bench", "all");
  if (bench == "all") {
    spec.benchmarks = workload::benchmark_names();
  } else {
    spec.benchmarks = split_list(bench);
  }
  if (spec.benchmarks.empty()) {
    std::cerr << "bench= selected no benchmarks\n";
    return usage(argv[0]);
  }

  // Filter axis: every name must be a registered filter key so a typo
  // fails here (exit 2, with the valid values) instead of mid-batch.
  for (const std::string& f :
       split_list(params.get_string("filter", "none,pa,pc"))) {
    if (!registry::has_filter(f)) {
      std::cerr << "unknown filter '" << f
                << "' (valid: " << registry::valid_filter_values() << ")\n";
      return usage(argv[0]);
    }
    spec.filters.push_back(f);
  }

  // Seed axis: explicit list wins over a count anchored at the base seed.
  try {
    if (params.has("seed_list")) {
      for (const std::string& s :
           split_list(params.get_string("seed_list", ""))) {
        spec.seeds.push_back(std::stoull(s));
      }
    } else {
      const std::uint64_t n = params.get_u64("seeds", 1);
      for (std::uint64_t i = 0; i < n; ++i) {
        spec.seeds.push_back(spec.base.seed + i);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bad seed list: " << e.what() << "\n";
    return usage(argv[0]);
  }

  // Observability knobs apply to every expanded job via the sweep base.
  const std::string trace_out = params.get_string("trace_out", "");
  const std::string timeseries_out = params.get_string("timeseries_out", "");
  try {
    std::uint64_t sample_interval = params.get_u64("sample_interval", 0);
    if (!timeseries_out.empty() && sample_interval == 0) {
      sample_interval = 50'000;
    }
    spec.base.obs.enabled = params.get_bool("obs", false) ||
                            !trace_out.empty() || !timeseries_out.empty() ||
                            sample_interval > 0;
    spec.base.obs.sample_interval = sample_interval;
    // Keeping every job's full event stream in memory is only worth it
    // when a trace sink asked for it; aggregate event counts (cheap) are
    // always recorded while obs is on.
    spec.base.obs.capture_events = !trace_out.empty();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  runlab::RunOptions opts;
  std::string progress = "auto";
  std::uint64_t cancel_after = 0;
  try {
    opts.workers = params.get_u64("jobs", 0);
    opts.job_timeout_ms = params.get_double("timeout_ms", 0.0);
    opts.trace_cache = params.get_bool("trace_cache", true);
    opts.warmup_share = params.get_bool("warmup_share", true);
    opts.trace_cache_mb = params.get_u64("trace_cache_mb", 0);
    opts.snapshot_cache_mb = params.get_u64("snapshot_cache_mb", 0);
    cancel_after = params.get_u64("cancel_after", 0);
    progress = params.get_string("progress", "auto");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  // Resolve the progress style: fancy (in-place \r rewrites and mid-job
  // heartbeats) belongs on a terminal; a redirected stderr gets plain
  // newline-terminated lines with no control sequences, so logs stay
  // greppable. auto/1 ask the TTY; plain/fancy force a style.
  if (progress == "1" || progress == "auto") {
    progress = ::isatty(STDERR_FILENO) != 0 ? "fancy" : "plain";
  }
  if (progress != "0" && progress != "plain" && progress != "fancy") {
    std::cerr << "progress= must be auto, 0, 1, plain, or fancy\n";
    return usage(argv[0]);
  }

  // Graceful SIGINT/SIGTERM: in-flight jobs drain, unstarted jobs become
  // cancelled records, every sink still flushes, and a cancelled-only
  // batch exits 0. cancel_after=N trips the identical path after N
  // completions, so the contract is testable without delivering signals.
  ShutdownRequest shutdown;
  shutdown.install_signal_handlers();
  opts.cancel = [&shutdown] { return shutdown.requested(); };

  if (progress == "fancy") {
    // Completion events and mid-job heartbeats share one stderr status
    // line; both rewrite it in place with \r.
    auto ui_mu = std::make_shared<std::mutex>();
    opts.on_progress = [ui_mu](const runlab::Progress& p) {
      std::lock_guard<std::mutex> lk(*ui_mu);
      std::cerr << "\r[" << p.done << "/" << p.total << "] ";
      if (p.failed > 0) std::cerr << p.failed << " failed, ";
      std::cerr << "last: " << p.last->job.benchmark << "/"
                << p.last->job.filter_name << "/s" << p.last->job.seed
                << "          " << std::flush;
      if (p.done == p.total) std::cerr << "\n";
    };
    opts.on_heartbeat = [ui_mu](const runlab::Heartbeat& hb) {
      if (hb.done == hb.total) return;  // final line belongs to on_progress
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\r[%zu/%zu] %.1f MI of %.1f MI (%.1f MIPS, eta %.0fs)"
                    "          ",
                    hb.done, hb.total,
                    static_cast<double>(hb.instructions) / 1e6,
                    static_cast<double>(hb.expected_instructions) / 1e6,
                    hb.mips, hb.eta_s);
      std::lock_guard<std::mutex> lk(*ui_mu);
      std::cerr << buf << std::flush;
    };
  } else if (progress == "plain") {
    // One full line per completion, no \r/ANSI, no wall-clock content —
    // with jobs=1 the stream is deterministic (pinned by
    // tests/cli/batch_progress_test.sh). Heartbeats are periodic and
    // wall-clock flavored, so plain mode leaves them unwired.
    opts.on_progress = [](const runlab::Progress& p) {
      std::cerr << "[" << p.done << "/" << p.total << "] "
                << p.last->job.benchmark << "/" << p.last->job.filter_name
                << "/s" << p.last->job.seed;
      if (!p.last->ok) {
        std::cerr << (p.last->cancelled ? " cancelled" : " FAILED");
      }
      std::cerr << "\n";
    };
  }
  if (cancel_after > 0) {
    // Chain after the style's own progress callback so the hook works in
    // every mode, including progress=0.
    auto inner = opts.on_progress;
    opts.on_progress = [inner, cancel_after,
                        &shutdown](const runlab::Progress& p) {
      if (inner) inner(p);
      if (p.done >= cancel_after) shutdown.request();
    };
  }

  const runlab::RunReport rep = runlab::run_sweep(spec, opts);
  runlab::print_telemetry(std::cerr, rep.telemetry);

  const std::string out = params.get_string("out", "-");
  if (out == "-") {
    runlab::write_json(std::cout, rep);
  } else {
    std::ofstream f(out);
    if (!f) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    runlab::write_json(f, rep);
  }
  const std::string csv = params.get_string("csv", "");
  if (!csv.empty()) {
    std::ofstream f(csv);
    if (!f) {
      std::cerr << "cannot open " << csv << " for writing\n";
      return 1;
    }
    runlab::write_csv(f, rep);
  }
  const std::string telemetry = params.get_string("telemetry_json", "");
  if (!telemetry.empty()) {
    std::ofstream f(telemetry);
    if (!f) {
      std::cerr << "cannot open " << telemetry << " for writing\n";
      return 1;
    }
    runlab::write_telemetry_json(f, rep);
  }

  // Per-job observability sinks: PREFIX.<submission-index>.<ext>. The
  // index is the stable job identity (results are in submission order),
  // so filenames are deterministic for any jobs=N.
  if (!trace_out.empty() || !timeseries_out.empty()) {
    const auto split_prefix = [](const std::string& p, bool& jsonl) {
      jsonl = p.size() >= 6 && p.rfind(".jsonl") == p.size() - 6;
      if (jsonl) return p.substr(0, p.size() - 6);
      if (p.size() >= 5 && p.rfind(".json") == p.size() - 5) {
        return p.substr(0, p.size() - 5);
      }
      return p;
    };
    for (const runlab::JobResult& jr : rep.results) {
      if (!jr.ok || jr.result.observation == nullptr) continue;
      const obs::ExportMeta meta{jr.result.workload, jr.result.filter_name};
      const std::string idx = std::to_string(jr.job.index);
      if (!trace_out.empty()) {
        bool jsonl = false;
        const std::string base = split_prefix(trace_out, jsonl);
        const std::string path =
            base + "." + idx + (jsonl ? ".jsonl" : ".json");
        std::ofstream f(path);
        if (!f) {
          std::cerr << "cannot open " << path << " for writing\n";
          return 1;
        }
        if (jsonl) {
          obs::write_trace_jsonl(f, *jr.result.observation, meta);
        } else {
          obs::write_trace_chrome(f, *jr.result.observation, meta);
        }
      }
      if (!timeseries_out.empty()) {
        bool jsonl = false;
        const std::string base = split_prefix(timeseries_out, jsonl);
        // Distinct suffix so trace_out and timeseries_out can share one
        // prefix without the later write clobbering the earlier one.
        const std::string path = base + "." + idx + ".timeseries.json";
        std::ofstream f(path);
        if (!f) {
          std::cerr << "cannot open " << path << " for writing\n";
          return 1;
        }
        obs::write_timeseries_json(f, *jr.result.observation, meta);
      }
    }
  }
  return rep.telemetry.failed_jobs == 0 ? 0 : 1;
}
