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
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "diff/diff.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [seed=N] [trials=N] [jobs=N] [oracle=ID[,ID...]] [shrink=0|1]\n"
      << "       [shrink_budget=N] [tripwire=0|1] [bench=a,b,...] "
         "[instructions=N] [warmup=N]\n"
      << "       [trial=N] [list=0|1]\n\n"
      << "  seed=N          master seed; trial i derives its own stream "
         "(default 42)\n"
      << "  trials=N        configuration points to sample (default 50)\n"
      << "  jobs=N          worker threads; verdicts are identical for any "
         "N (default 1)\n"
      << "  oracle=ID,...   run only the named oracles (default: all)\n"
      << "  shrink=0|1      shrink failing points to a minimal repro "
         "(default 1)\n"
      << "  shrink_budget=N max oracle probes per shrink (default 48)\n"
      << "  tripwire=0|1    plant the synthetic diff.tripwire bug to prove "
         "the pipeline (default 0)\n"
      << "  bench=a,b,...   restrict the benchmark axis\n"
      << "  instructions=N  fix the instruction budget axis to exactly N\n"
      << "  warmup=N        fix the warmup axis to exactly N\n"
      << "  trial=N         print the point trial N samples, then exit\n"
      << "  list=0|1        print the oracle catalogue, then exit\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const std::vector<std::string>& driver_keys() {
  static const std::vector<std::string> keys = {
      "seed",     "trials",       "jobs",     "oracle", "shrink",
      "shrink_budget", "tripwire", "bench",   "instructions", "warmup",
      "trial",    "list",         "help"};
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  ParamMap params;
  try {
    params = ParamMap::from_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  if (params.has("help")) return usage(argv[0]);
  for (const auto& [key, value] : params.entries()) {
    bool known = false;
    for (const std::string& k : driver_keys()) known = known || k == key;
    if (!known) {
      std::cerr << "unknown key: " << key << "\n\n";
      return usage(argv[0]);
    }
  }

  if (params.get_bool("list", false)) {
    for (const diff::Oracle& o : diff::oracle_catalogue()) {
      std::cout << o.id << " — " << o.summary << "\n";
    }
    const diff::Oracle trip = diff::tripwire_oracle();
    std::cout << trip.id << " — " << trip.summary << " (tripwire=1 only)\n";
    return 0;
  }

  diff::DiffOptions opts;
  try {
    opts.seed = params.get_u64("seed", opts.seed);
    opts.trials = params.get_u64("trials", opts.trials);
    opts.jobs = params.get_u64("jobs", opts.jobs);
    opts.shrink = params.get_bool("shrink", opts.shrink);
    opts.shrink_budget = params.get_u64("shrink_budget", opts.shrink_budget);
    opts.tripwire = params.get_bool("tripwire", opts.tripwire);
    if (params.has("oracle")) {
      opts.only_oracles = split_csv(params.get_string("oracle", ""));
    }
    if (params.has("bench")) {
      opts.sample.benchmarks = split_csv(params.get_string("bench", ""));
      if (opts.sample.benchmarks.empty()) {
        std::cerr << "bench= needs at least one name\n\n";
        return usage(argv[0]);
      }
      // A bad name is a usage error, not a failure of every oracle.
      for (const std::string& name : opts.sample.benchmarks) {
        (void)workload::parse_benchmark_name(name);
      }
    }
    if (params.has("instructions")) {
      opts.sample.instruction_budgets = {params.get_u64("instructions", 0)};
    }
    if (params.has("warmup")) {
      opts.sample.warmups = {params.get_u64("warmup", 0)};
    }
    if (params.has("trial")) {
      const std::uint64_t t = params.get_u64("trial", 0);
      std::cout << diff::trial_point(opts, t).repro() << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
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
