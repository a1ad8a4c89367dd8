// Policy tournament: every registered pollution filter crossed with
// every registered hardware prefetcher, over the ten built-in workloads,
// ranked by mean IPC with the pollution split alongside.
//
//   ./bench_tournament [jobs=N] [out=FILE] [filters=a,b] [prefetchers=c,d]
//                      [benches=e,f] [key=value ...]
//
// The grid defaults to the full registry x registry x benchmark cube;
// the axis keys cut it down (the CI smoke job runs a 3x2x2 corner at two
// worker counts and byte-compares the reports). `out=` writes the
// "ppf.tournament.v1" JSON document, which is byte-identical for any
// jobs= value. Remaining key=value args configure the base machine.
#include <fstream>

#include "bench_common.hpp"
#include "diff/signature.hpp"
#include "registry/registry.hpp"
#include "runlab/tournament.hpp"

using namespace ppf;

int main(int argc, char** argv) {
  runlab::TournamentSpec spec;
  std::size_t jobs = 0;
  std::string out_path;
  try {
    const ParamMap params = ParamMap::from_args(argc, argv);
    if (params.has("help")) throw std::invalid_argument("help requested");
    const std::vector<std::string> driver_keys = {
        "jobs", "out", "filters", "prefetchers", "benches"};
    const std::string unknown = sim::first_unknown_key(params, driver_keys);
    if (!unknown.empty()) {
      throw std::invalid_argument("unknown key: " + unknown);
    }
    jobs = params.get_u64("jobs", 0);
    out_path = params.get_string("out", "");
    spec.filters = params.has("filters")
                       ? split_list(params.get_string("filters", ""))
                       : registry::filter_keys();
    spec.prefetchers =
        params.has("prefetchers")
            ? split_list(params.get_string("prefetchers", ""))
            : registry::prefetcher_keys();
    spec.benchmarks = params.has("benches")
                          ? split_list(params.get_string("benches", ""))
                          : workload::benchmark_names();

    spec.base = sim::SimConfig::paper_default();
    spec.base.max_instructions = 400'000;
    spec.base.warmup_instructions = 100'000;
    sim::apply_overrides(spec.base, params, driver_keys);
  } catch (const std::exception& e) {
    std::cerr << "usage: " << argv[0]
              << " [jobs=N] [out=FILE] [filters=a,b] [prefetchers=c,d]"
                 " [benches=e,f] [key=value ...]\n"
              << e.what() << "\n\nregistered filters:     "
              << registry::valid_filter_values()
              << "\nregistered prefetchers: "
              << registry::valid_prefetcher_values() << "\n";
    return 2;
  }

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
    rep = runlab::run_tournament(spec, runlab::with_workers(jobs));
  } catch (const std::exception& e) {
    std::cerr << "bench_tournament: " << e.what() << "\n";
    return 2;
  }

  runlab::print_tournament(std::cout, rep);
  std::cout << "\n(" << rep.job_count << " runs: " << spec.filters.size()
            << " filters x " << spec.prefetchers.size() << " prefetchers x "
            << spec.benchmarks.size() << " benchmarks)\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "bench_tournament: cannot open " << out_path << "\n";
      return 1;
    }
    runlab::write_tournament_json(out, rep);
  }
  return 0;
}
