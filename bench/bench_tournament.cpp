// Policy tournament: every registered pollution filter crossed with
// every registered hardware prefetcher, over the ten built-in workloads,
// ranked by mean IPC with the pollution split alongside.
//
//   ./bench_tournament filters=none,pa,perceptron prefetchers=nsp,pmp
//                      benches=mcf,gzip jobs=8 out=tournament.json
//   ./bench_tournament help=1     # the keys, then the machine keys
//
// The grid defaults to the full registry x registry x benchmark cube;
// the axis keys cut it down (the CI smoke job runs a 3x2x2 corner at two
// worker counts and byte-compares the reports). `out=` writes the
// "ppf.tournament.v1" JSON document, which is byte-identical for any
// jobs= value. Remaining key=value args configure the base machine.
#include <fstream>
#include <iostream>
#include <optional>

#include "common/config.hpp"
#include "diff/signature.hpp"
#include "registry/registry.hpp"
#include "runlab/tournament.hpp"
#include "sim/config_apply.hpp"
#include "sim/report.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

int main(int argc, char** argv) {
  runlab::TournamentSpec spec;
  spec.base = sim::SimConfig::paper_default();
  spec.base.max_instructions = 400'000;
  spec.base.warmup_instructions = 100'000;
  sim::CommandLine cli(
      {{"jobs", "runlab worker threads (default 0: one per hardware thread)",
        sim::ints(0, 1024)},
       {"out", "write the ppf.tournament.v1 JSON document to FILE",
        sim::kText},
       {"filters", "comma list of filter keys, as the machine key filter= "
                   "takes (default every registered filter)",
        sim::kText},
       {"prefetchers", "comma list of prefetcher keys (default every "
                       "registered prefetcher)",
        sim::kText},
       {"benches", "the benchmark axis (default all ten)",
        sim::benchmarks(sim::kU64)}},
      &spec.base);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;
  spec.filters = args->has("filters")
                     ? split_list(args->get_string("filters", ""))
                     : registry::filter_keys();
  spec.prefetchers = args->has("prefetchers")
                         ? split_list(args->get_string("prefetchers", ""))
                         : registry::prefetcher_keys();
  spec.benchmarks = args->has("benches")
                        ? split_list(args->get_string("benches", ""))
                        : workload::benchmark_names();

  // Memo-friendly signature per grid point: two points with equal
  // digests are guaranteed byte-identical runs, so a results cache can
  // key on it.
  spec.signature = [](const sim::SimConfig& cfg, const std::string& bench) {
    return diff::config_digest(cfg, bench);
  };

  sim::print_experiment_header(
      std::cout, "Tournament",
      "every registered filter x prefetcher, ranked by mean IPC");

  runlab::TournamentReport rep;
  try {
    rep = runlab::run_tournament(spec,
                                 runlab::with_workers(args->get_u64("jobs", 0)));
  } catch (const std::exception& e) {
    std::cerr << "bench_tournament: " << e.what() << "\n";
    return 2;
  }

  runlab::print_tournament(std::cout, rep);
  std::cout << "\n(" << rep.job_count << " runs: " << spec.filters.size()
            << " filters x " << spec.prefetchers.size() << " prefetchers x "
            << spec.benchmarks.size() << " benchmarks)\n";

  if (const std::string out_path = args->get_string("out", "");
      !out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "bench_tournament: cannot open " << out_path << "\n";
      return 1;
    }
    runlab::write_tournament_json(out, rep);
  }
  return 0;
}
