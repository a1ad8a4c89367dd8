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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hpp"
#include "common/shutdown.hpp"
#include "registry/registry.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "sim/config_apply.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

namespace {

const std::vector<sim::DriverKey> kKeys = {
    {"bench", "benchmarks or mixes to run (default all)",
     sim::benchmarks(sim::kU64,
                     [] { return std::vector<std::string>{"all"}; })},
    {"filter", "comma list of filter keys, as the machine key filter= takes "
               "(default none,pa,pc)",
     sim::kText},
    {"seeds", "N seeds: the base seed, base+1, ... (default 1)", sim::kCount},
    {"seed_list", "comma list of seeds, each an integer in [0, 2^64-1] "
                  "(overrides seeds=)",
     sim::kText},
    {"jobs", "worker threads (default 0: one per hardware thread)",
     sim::ints(0, 1024)},
    {"timeout_ms", "soft per-job timeout; overruns become error records "
                   "(default 0: none)",
     sim::reals(0, std::numeric_limits<double>::infinity())},
    {"progress", "stderr progress style: auto (default) is fancy (\\r "
                 "rewrites and MIPS/ETA heartbeats) on a TTY and plain (one "
                 "line per job) otherwise, as is 1; 0 silences it",
     sim::names([] {
       return std::vector<std::string>{"auto", "0", "1", "plain", "fancy"};
     })},
    {"trace_cache", "build each trace read twice once and share it across "
                    "jobs (default 1; results identical either way)",
     sim::kBool},
    {"warmup_share", "warm up once per warmup-relevant config two or more "
                     "jobs share and clone the warm machine into them "
                     "(default 1; results identical either way)",
     sim::kBool},
    {"cancel_after", "request shutdown after N completed jobs, as SIGINT "
                     "does: the rest become cancelled records, sinks still "
                     "flush, exit stays 0 (default 0: never)",
     sim::kCount},
    {"out", "ordered JSON results; - is stdout (default -)", sim::kText},
    {"csv", "also write CSV to PATH", sim::kText},
    {"telemetry_json", "write wall-clock throughput telemetry to PATH "
                       "(ppf.telemetry.v1, the BENCH_throughput.json schema)",
     sim::kText},
    {"obs", "per-job metrics recording (implied by the keys below)",
     sim::kBool},
    {"trace_out", "per-job lifecycle traces PREFIX.<index>.json (Chrome "
                  "trace_event), or PREFIX.<index>.jsonl (ppf.trace.v1) "
                  "when PREFIX ends in .jsonl",
     sim::kText},
    {"timeseries_out", "per-job interval metrics "
                       "PREFIX.<index>.timeseries.json (ppf.timeseries.v1)",
     sim::kText},
    {"sample_interval", "cycles per time-series row (default 50000 when "
                        "timeseries_out is set)",
     sim::kCount},
};

}  // namespace

int main(int argc, char** argv) {
  // Machine config: every machine key is an override on Table 1.
  runlab::SweepSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 1'000'000;
  sim::CommandLine cli(kKeys, &spec.base);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;

  const std::string bench = args->get_string("bench", "all");
  spec.benchmarks =
      bench == "all" ? workload::benchmark_names() : split_list(bench);

  // Filter axis: every name must be a registered filter key so a typo
  // fails here (exit 2, with the valid values) instead of mid-batch.
  for (const std::string& f :
       split_list(args->get_string("filter", "none,pa,pc"))) {
    if (!registry::has_filter(f)) {
      return cli.usage_error("unknown filter '" + f + "' (valid: " +
                             registry::valid_filter_values() + ")");
    }
    spec.filters.push_back(f);
  }

  // Seed axis: explicit list wins over a count anchored at the base seed.
  if (args->has("seed_list")) {
    try {
      for (const std::string& s :
           split_list(args->get_string("seed_list", ""))) {
        spec.seeds.push_back(sim::kCount.parse("seed_list", s).u);
      }
    } catch (const std::exception& e) {
      return cli.usage_error(e.what());
    }
  } else {
    const std::uint64_t n = args->get_u64("seeds", 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      spec.seeds.push_back(spec.base.seed + i);
    }
  }

  // Observability knobs apply to every expanded job via the sweep base.
  // Keeping every job's full event stream in memory is only worth it
  // when a trace sink asked for it; aggregate event counts (cheap) are
  // always recorded while obs is on.
  const sim::ObservationSinks sinks =
      sim::ObservationSinks::read(*args, spec.base);
  spec.base.obs.capture_events = !sinks.trace_out.empty();

  runlab::RunOptions opts;
  opts.workers = args->get_u64("jobs", 0);
  opts.job_timeout_ms = args->get_double("timeout_ms", 0.0);
  opts.trace_cache = args->get_bool("trace_cache", true);
  opts.warmup_share = args->get_bool("warmup_share", true);
  const std::uint64_t cancel_after = args->get_u64("cancel_after", 0);
  // Resolve the progress style: fancy (in-place \r rewrites and mid-job
  // heartbeats) belongs on a terminal; a redirected stderr gets plain
  // newline-terminated lines with no control sequences, so logs stay
  // greppable. auto/1 ask the TTY; plain/fancy force a style.
  std::string progress = args->get_string("progress", "auto");
  if (progress == "1" || progress == "auto") {
    progress = ::isatty(STDERR_FILENO) != 0 ? "fancy" : "plain";
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

  const std::string out = args->get_string("out", "-");
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
  const std::string csv = args->get_string("csv", "");
  if (!csv.empty()) {
    std::ofstream f(csv);
    if (!f) {
      std::cerr << "cannot open " << csv << " for writing\n";
      return 1;
    }
    runlab::write_csv(f, rep);
  }
  const std::string telemetry = args->get_string("telemetry_json", "");
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
  try {
    for (const runlab::JobResult& jr : rep.results) {
      if (jr.ok) sinks.write(jr.result, std::to_string(jr.job.index));
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return rep.telemetry.failed_jobs == 0 ? 0 : 1;
}
