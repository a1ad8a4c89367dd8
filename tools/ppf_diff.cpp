// ppf_diff — differential/metamorphic bug-hunting driver.
//
// Samples random-but-valid configuration points from the knob lattice,
// evaluates the oracle catalogue against each (paired execution paths
// that must agree byte-for-byte, plus cross-config metamorphic
// relations), and shrinks every failure to a minimal key=value repro.
//
//   ppf_diff seed=42 trials=50            # the CI smoke invocation
//   ppf_diff seed=42 trials=50 jobs=8     # identical verdicts, faster
//   ppf_diff oracle=diff.cold_vs_snapshot trials=10
//   ppf_diff tripwire=1 trials=3          # prove catch -> shrink -> report
//   ppf_diff list=1                       # print the oracle catalogue
//
// Exit status: 0 all oracles held, 1 violations (or an internal error),
// 2 usage error. See docs/DIFF.md.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "diff/diff.hpp"
#include "sim/config_apply.hpp"

using namespace ppf;

namespace {

const std::vector<sim::DriverKey> kKeys = {
    {"seed", "master seed; trial i derives its own stream (default 42)",
     sim::kCount},
    {"trials", "configuration points to sample (default 50)", sim::kCount},
    {"jobs", "worker threads; verdicts are identical for any N (default 1)",
     sim::ints(0, 1024)},
    {"oracle", "run only these oracle IDs, comma-separated (default all)",
     sim::kText},
    {"shrink", "shrink failing points to a minimal repro (default 1)",
     sim::kBool},
    {"shrink_budget", "max oracle probes per shrink (default 48)",
     sim::kCount},
    {"tripwire", "plant the synthetic diff.tripwire bug to prove the "
                 "pipeline (default 0)",
     sim::kBool},
    {"bench", "restrict the benchmark axis", sim::benchmarks(sim::kU64)},
    {"instructions", "fix the instruction budget axis to exactly N",
     sim::kCount},
    {"warmup", "fix the warmup axis to exactly N", sim::kCount},
    {"trial", "print the point trial N samples, then exit", sim::kCount},
    {"list", "print the oracle catalogue, then exit (default 0)",
     sim::kBool},
};

}  // namespace

int main(int argc, char** argv) {
  sim::CommandLine cli(kKeys);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;

  if (args->get_bool("list", false)) {
    for (const diff::Oracle& o : diff::oracle_catalogue()) {
      std::cout << o.id << " — " << o.summary << "\n";
    }
    const diff::Oracle trip = diff::tripwire_oracle();
    std::cout << trip.id << " — " << trip.summary << " (tripwire=1 only)\n";
    return 0;
  }

  diff::DiffOptions opts;
  opts.seed = args->get_u64("seed", opts.seed);
  opts.trials = args->get_u64("trials", opts.trials);
  opts.jobs = args->get_u64("jobs", opts.jobs);
  opts.shrink = args->get_bool("shrink", opts.shrink);
  opts.shrink_budget = args->get_u64("shrink_budget", opts.shrink_budget);
  opts.tripwire = args->get_bool("tripwire", opts.tripwire);
  if (args->has("oracle")) {
    opts.only_oracles = split_list(args->get_string("oracle", ""));
  }
  if (args->has("bench")) {
    opts.sample.benchmarks = split_list(args->get_string("bench", ""));
  }
  if (args->has("instructions")) {
    opts.sample.instruction_budgets = {args->get_u64("instructions", 0)};
  }
  if (args->has("warmup")) {
    opts.sample.warmups = {args->get_u64("warmup", 0)};
  }
  if (args->has("trial")) {
    const std::uint64_t t = args->get_u64("trial", 0);
    std::cout << diff::trial_point(opts, t).repro() << "\n";
    return 0;
  }

  try {
    const diff::DiffReport rep = diff::run_diff(opts);
    std::cout << rep.format();
    return rep.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ppf_diff failed: " << e.what() << "\n";
    return 1;
  }
}
