// Trace capture and replay: materialise a synthetic benchmark into the
// portable ppftrace text format, read it back, and simulate the replay —
// the workflow for bringing externally captured traces (e.g. converted
// SimpleScalar EIO or ChampSim traces) into this simulator.
//
//   ./trace_capture [bench=gcc] [records=200000] [file=/tmp/gcc.ppftrace]
#include <fstream>
#include <iostream>

#include "common/config.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

using namespace ppf;

int main(int argc, char** argv) {
  const ParamMap params = ParamMap::from_args(argc, argv);
  const std::string bench = params.get_string("bench", "gcc");
  const std::size_t records = params.get_u64("records", 200'000);
  const std::string path =
      params.get_string("file", "/tmp/" + bench + ".ppftrace");

  // 1. Capture: pull records out of the generator and serialise them.
  auto gen = workload::make_benchmark(bench, 42);
  const std::vector<workload::TraceRecord> captured =
      workload::collect(*gen, records);
  {
    std::ofstream out(path);
    workload::write_trace(out, captured);
  }
  std::cout << "captured " << captured.size() << " records of '" << bench
            << "' to " << path << "\n";

  // 2. Replay: run the file through the full machine, parsing records
  // as the core fetches them.
  std::ifstream in(path);
  workload::TextTraceReader replay(in, bench + "-replay");

  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = records;
  cfg.warmup_instructions = 0;  // finite trace: measure everything
  cfg.filter = "pc";
  sim::Simulator sim(cfg);
  const sim::SimResult r = sim.run(replay);

  sim::Table t({"metric", "value"});
  t.add_row({"instructions", sim::fmt_u64(r.core.instructions)});
  t.add_row({"cycles", sim::fmt_u64(r.core.cycles)});
  t.add_row({"IPC", sim::fmt(r.ipc())});
  t.add_row({"L1D miss rate", sim::fmt_pct(r.l1d_miss_rate(), 2)});
  t.add_row({"prefetches good/bad", sim::fmt_u64(r.good_total()) + " / " +
                                        sim::fmt_u64(r.bad_total())});
  t.print(std::cout);

  // 3. Round-trip integrity check.
  std::ifstream again(path);
  const auto reread = workload::read_trace(again);
  std::cout << "\nround-trip check: "
            << (reread == captured ? "OK (bit-identical)" : "MISMATCH")
            << "\n";
  return reread == captured ? 0 : 1;
}
