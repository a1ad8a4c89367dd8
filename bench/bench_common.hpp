// Shared plumbing for the per-figure bench binaries.
//
// Every binary accepts key=value overrides, e.g.:
//   ./bench_fig6 instructions=4000000 warmup=1000000 seed=7
// so longer, closer-to-paper runs are one flag away (the paper simulates
// 300M instructions; defaults here are scaled for quick regeneration).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "runlab/runner.hpp"
#include "sim/config_apply.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::bench {

/// Everything a bench binary takes from the command line: the base
/// (Table 1) machine plus the runlab worker count (`jobs=N`, 0 = one
/// per hardware thread) for figures that batch their runs.
struct CliOptions {
  sim::SimConfig cfg;
  std::size_t jobs = 0;
};

/// Parse CLI overrides. Any override key of `sim::config_schema()` plus
/// the driver key `jobs` is accepted; figure-specific settings (L1 size,
/// ports, filter) are applied by each binary on top.
inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  cli.cfg = sim::SimConfig::paper_default();
  cli.cfg.max_instructions = 1'000'000;
  cli.cfg.warmup_instructions = 500'000;
  try {
    const ParamMap params = ParamMap::from_args(argc, argv);
    if (params.has("help")) throw std::invalid_argument("help requested");
    const std::string unknown = sim::first_unknown_key(params, {"jobs"});
    if (!unknown.empty()) {
      throw std::invalid_argument("unknown key: " + unknown);
    }
    cli.jobs = params.get_u64("jobs", 0);
    sim::apply_overrides(cli.cfg, params, {"jobs"});
  } catch (const std::exception& e) {
    std::cerr << "usage: " << argv[0] << " [key=value ...]\n"
              << e.what() << "\n\nrecognised keys:\n"
              << "  jobs — runlab worker threads (0 = hardware)\n";
    sim::print_override_keys(std::cerr);
    std::exit(2);
  }
  return cli;
}

inline sim::SimConfig base_config(int argc, char** argv) {
  return parse_cli(argc, argv).cfg;
}

/// Mean of a metric across per-benchmark results.
template <typename F>
double mean_metric(const std::vector<sim::SimResult>& rs, F metric) {
  if (rs.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : rs) s += metric(r);
  return s / static_cast<double>(rs.size());
}

/// Figures 4 and 7: bad and good prefetch counts under no-filter / PA /
/// PC, normalised to the no-filter good count (the paper's presentation).
inline void print_prefetch_count_figure(const sim::SimConfig& base) {
  sim::Table t({"benchmark", "bad:none", "bad:PA", "bad:PC", "good:none",
                "good:PA", "good:PC"});
  double bad_rm_pa = 0, bad_rm_pc = 0, good_rm_pa = 0, good_rm_pc = 0;
  int counted = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = sim::run_filter_scenarios(base, name);
    const double g0 = static_cast<double>(r.none.good_total());
    auto norm = [&](std::uint64_t v) {
      return g0 == 0 ? 0.0 : static_cast<double>(v) / g0;
    };
    t.add_row({name, sim::fmt(norm(r.none.bad_total())),
               sim::fmt(norm(r.pa.bad_total())),
               sim::fmt(norm(r.pc.bad_total())), sim::fmt(norm(g0)),
               sim::fmt(norm(r.pa.good_total())),
               sim::fmt(norm(r.pc.good_total()))});
    if (r.none.bad_total() > 0 && r.none.good_total() > 0) {
      bad_rm_pa += 1.0 - static_cast<double>(r.pa.bad_total()) /
                             static_cast<double>(r.none.bad_total());
      bad_rm_pc += 1.0 - static_cast<double>(r.pc.bad_total()) /
                             static_cast<double>(r.none.bad_total());
      good_rm_pa += 1.0 - static_cast<double>(r.pa.good_total()) / g0;
      good_rm_pc += 1.0 - static_cast<double>(r.pc.good_total()) / g0;
      ++counted;
    }
  }
  t.print(std::cout);
  if (counted > 0) {
    const double n = counted;
    std::printf(
        "\nmean bad-prefetch reduction:  PA %.0f%%  PC %.0f%%\n"
        "mean good-prefetch reduction: PA %.0f%%  PC %.0f%%\n",
        100 * bad_rm_pa / n, 100 * bad_rm_pc / n, 100 * good_rm_pa / n,
        100 * good_rm_pc / n);
  }
}

/// Figures 5, 8: bad/good prefetch ratio for no-filter / PA / PC.
inline void print_bad_good_ratio_figure(const sim::SimConfig& base) {
  sim::Table t({"benchmark", "none", "PA", "PC", "PA reduction",
                "PC reduction"});
  double red_pa = 0, red_pc = 0;
  int counted = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = sim::run_filter_scenarios(base, name);
    const double b0 = r.none.bad_good_ratio();
    const double bpa = r.pa.bad_good_ratio();
    const double bpc = r.pc.bad_good_ratio();
    const double rpa = b0 == 0 ? 0.0 : 1.0 - bpa / b0;
    const double rpc = b0 == 0 ? 0.0 : 1.0 - bpc / b0;
    t.add_row({name, sim::fmt(b0), sim::fmt(bpa), sim::fmt(bpc),
               sim::fmt_pct(rpa), sim::fmt_pct(rpc)});
    if (b0 > 0) {
      red_pa += rpa;
      red_pc += rpc;
      ++counted;
    }
  }
  t.print(std::cout);
  if (counted > 0) {
    std::printf("\nmean bad/good-ratio reduction: PA %.0f%%  PC %.0f%%\n",
                100 * red_pa / counted, 100 * red_pc / counted);
  }
}

/// Figures 6, 9: IPC for no-filter / PA / PC.
inline void print_ipc_figure(const sim::SimConfig& base) {
  sim::Table t({"benchmark", "IPC:none", "IPC:PA", "IPC:PC", "PA gain",
                "PC gain"});
  double gain_pa = 0, gain_pc = 0;
  int n = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = sim::run_filter_scenarios(base, name);
    const double gp = r.pa.ipc() / r.none.ipc() - 1.0;
    const double gc = r.pc.ipc() / r.none.ipc() - 1.0;
    t.add_row({name, sim::fmt(r.none.ipc()), sim::fmt(r.pa.ipc()),
               sim::fmt(r.pc.ipc()), sim::fmt_pct(gp), sim::fmt_pct(gc)});
    gain_pa += gp;
    gain_pc += gc;
    ++n;
  }
  t.print(std::cout);
  std::printf("\nmean IPC gain over no-filtering: PA %.1f%%  PC %.1f%%\n",
              100 * gain_pa / n, 100 * gain_pc / n);
}

}  // namespace ppf::bench
