// Shared plumbing for the bench binaries.
//
// Every binary accepts key=value overrides, e.g.:
//   ./bench_paper fig=fig6 instructions=4000000 warmup=1000000 seed=7
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
/// (Table 1) machine, the runlab worker count (`jobs=N`, 0 = one per
/// hardware thread) and every argument, from which a binary reads its
/// own keys.
struct CliOptions {
  sim::SimConfig cfg;
  std::size_t jobs = 0;
  ParamMap params;
};

/// A key a bench binary accepts beside the machine keys, with its help.
struct BenchKey {
  std::string name;
  std::string help;
};

/// Parse CLI overrides. Any override key of `sim::config_schema()`, the
/// bench key `jobs` and the binary's `own` keys are accepted;
/// figure-specific settings (L1 size, ports, filter) are applied by each
/// binary on top.
inline CliOptions parse_cli(int argc, char** argv,
                            std::vector<BenchKey> own = {}) {
  own.insert(own.begin(), {"jobs", "runlab worker threads (0 = hardware)"});
  std::vector<std::string> names;
  for (const BenchKey& k : own) names.push_back(k.name);
  CliOptions cli;
  cli.cfg = sim::SimConfig::paper_default();
  cli.cfg.max_instructions = 1'000'000;
  cli.cfg.warmup_instructions = 500'000;
  try {
    cli.params = ParamMap::from_args(argc, argv);
    if (cli.params.has("help")) {
      throw std::invalid_argument("help requested");
    }
    const std::string unknown = sim::first_unknown_key(cli.params, names);
    if (!unknown.empty()) {
      throw std::invalid_argument("unknown key: " + unknown);
    }
    cli.jobs = cli.params.get_u64("jobs", 0);
    sim::apply_overrides(cli.cfg, cli.params, names);
  } catch (const std::exception& e) {
    std::cerr << "usage: " << argv[0] << " [key=value ...]\n"
              << e.what() << "\n\nrecognised keys:\n";
    for (const BenchKey& k : own) {
      std::cerr << "  " << k.name << " — " << k.help << "\n";
    }
    sim::print_override_keys(std::cerr);
    std::exit(2);
  }
  return cli;
}

}  // namespace ppf::bench
