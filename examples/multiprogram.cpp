// Multiprogrammed run: two programs sharing the machine with context
// switches, showing how the pollution filter behaves through working-set
// changes — and how the adaptive (accuracy-gated) filter engages only
// when prefetching misbehaves.
//
//   ./multiprogram [a=em3d] [b=gzip] [slice=100000] [instructions=800000]
#include <iostream>
#include <string>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

using namespace ppf;

int main(int argc, char** argv) {
  const ParamMap params = ParamMap::from_args(argc, argv);
  const std::string a = params.get_string("a", "em3d");
  const std::string b = params.get_string("b", "gzip");
  const std::uint64_t slice = params.get_u64("slice", 100'000);
  // A mix is a benchmark name: program A on the workload seed, B on the
  // next one.
  const std::string mix = a + "+" + b + "/" + std::to_string(slice);

  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = params.get_u64("instructions", 800'000);
  cfg.warmup_instructions = 200'000;

  std::cout << "time-sliced mix of '" << a << "' and '" << b << "' ("
            << slice << "-instruction slices)\n\n";

  sim::Table t({"filter", "IPC", "good pf", "bad pf", "rejected",
                "energy uJ"});
  for (auto kind :
       {"none", "pa",
        "pc", "adaptive"}) {
    cfg.filter = kind;
    const sim::SimResult r = sim::run_benchmark(cfg, mix);
    t.add_row({kind, sim::fmt(r.ipc()),
               sim::fmt_u64(r.good_total()), sim::fmt_u64(r.bad_total()),
               sim::fmt_u64(r.filter_rejected),
               sim::fmt(r.energy.total_nj() / 1000.0, 1)});
  }
  t.print(std::cout);

  std::cout << "\nEach context switch replaces the working set; the "
               "history table is shared, so the\nfilter relearns — the "
               "situation where the paper argues dynamic beats static.\n";
  return 0;
}
