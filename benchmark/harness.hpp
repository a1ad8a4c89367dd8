// Shared pieces of the benchmark harness: run options, timing helpers,
// the pass loop, result digests and per-layer accumulation.
//
// Every number the harness reports is taken from outside the program:
// the harness times its own calls into public functions and reads the
// telemetry those functions already export (ExecCacheStats, the
// obs::Profiler, CoreResult.stages, Service spans and metrics). Nothing
// here adds a probe inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace ppf::bench {

using Clock = std::chrono::steady_clock;

/// Settings of one workload run (see run.sh for the command line).
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 24.0;  ///< measurement budget; set-up comes on top
  bool trace = false;     ///< per-layer run: add traced cycles
  bool smoke = false;     ///< about 1/20 of the full inputs
};

/// How many times a workload repeats its set-up; setup_s is the median.
inline int setup_reps(const Options& o) { return o.smoke ? 1 : 7; }

/// The `k` trace seeds a run draws from its --seed: seed*k .. seed*k+k-1,
/// disjoint across seeds. The synthetic benchmarks' host time varies by
/// 9-20% from one trace seed to the next (their random code layouts give
/// different memory-op mixes), so each workload spreads its jobs over
/// several traces to keep a run's total work steady across seeds.
std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, std::size_t k);

/// Cost of one steady_clock::now() call in ns, measured once per process.
double clock_ns();

/// Seconds from `t0` to now, less the cost of one clock read.
double elapsed_s(Clock::time_point t0);

/// Hand freed memory back to the OS. Called after every pass, plain or
/// traced, so each pass starts from the same state and pays its own page
/// faults, as a fresh process would, and peak_rss_mb is the largest
/// single pass's footprint rather than growing with the passes a run fits.
void release_memory();

/// Median and nearest-rank percentile (p in [0, 1]); 0 for no samples.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// FNV-1a over a sequence of strings, rendered as 16 hex digits. Folds
/// result signatures or response bodies into one digest per workload.
class Digest {
 public:
  void add(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Per-layer values of one traced cycle, by catalogue name.
using Layers = std::map<std::string, double>;

/// One timed pass over one unit of a workload's work.
struct Pass {
  double wall_s = 0;
  std::vector<double> op_s;  ///< latency of each operation it ran
};

/// Every pass of one run: plain passes by unit, and per traced cycle
/// (one traced pass over all units) its wall time and layer values.
struct RunLog {
  std::vector<std::vector<Pass>> plain;
  std::vector<double> traced_wall_s;
  std::vector<Layers> layers;
  double peak_rss_mb = 0;  ///< after set-up and the first plain pass
};

/// What one workload run produced. `end_to_end` comes from plain passes;
/// `layers` from traced cycles (median over them per name).
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations: simulations or requests
  std::uint64_t failed = 0;
  std::vector<std::string> unit_digests;  ///< result digest of each unit
  std::string digest;                     ///< folds unit_digests
  std::vector<std::string> errors;        ///< correctness failures
  std::map<std::string, double> end_to_end;
  Layers layers;
  RunLog log;  ///< every pass, for the report

  /// Record a unit's result digest: the first pass sets it, every later
  /// pass must match (traced ones too, so tracing provably changes no
  /// result).
  void check_digest(std::size_t unit, const std::string& d, const char* what);
};

/// Cycle over a workload's `units` until `o.seconds` of measurement are
/// spent: each cycle runs `plain` once per unit and, in trace mode,
/// `traced` once over every unit; `traced` calls release_memory() between
/// its units, as this does after every pass, and returns the summed wall
/// time of the same spans the plain passes time. A cycle starts only
/// while the median cycle so far predicts it ends within the budget; the
/// first two always run.
RunLog run_units(const Options& o, std::size_t units,
                 const std::function<Pass(std::size_t)>& plain,
                 const std::function<double(Layers&)>& traced);

/// Fill `out` from a finished run and return the pooled operation
/// latencies. Each unit is represented by its fastest plain passes, one
/// in 64 but at least one: other tenants of a shared host only ever slow
/// a pass down, so the fastest of many short passes follow the program's
/// own speed where their mean follows the host's load. wall_s sums the
/// units' mean wall over those passes, ops_per_s is `ops` over it, and
/// latency_p50_ms is the median of their pooled operations. The traced
/// cycles are represented the same way; setup_s is the median set-up.
/// Layers are medians over the traced cycles, plus latency.tail_ms (the
/// pooled operations' `tail_p` percentile), latency.samples and
/// trace.overhead_ratio (traced cycle wall over wall_s, minus one).
std::vector<double> finish(RunLog log, double ops, double tail_p,
                           const std::vector<double>& setup_s, Outcome& out);

/// Sums over a set of simulation results, for the sim.*, mem.* and
/// prefetch.* layer metrics.
struct ResultTotals {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double stage_ns[4] = {0, 0, 0, 0};  ///< fetch, probe, retire, memsys
  std::uint64_t probe_records = 0;
  std::uint64_t memsys_records = 0;
  std::uint64_t l1d_accesses = 0, l1d_misses = 0;
  std::uint64_t l2_accesses = 0, l2_misses = 0;
  std::uint64_t bus_busy_cycles = 0;
  std::uint64_t prefetch_issued = 0, good = 0, bad = 0;

  void add(const sim::SimResult& r);
  ResultTotals& operator+=(const ResultTotals& o);
  /// `simulate_s`: harness-timed host time of the simulations;
  /// `stage_cover_s`: host time of the calls whose work the engine's
  /// sampled stage estimates describe (warmup included).
  void write(Layers& l, double simulate_s, double stage_cover_s) const;
};

// The five workloads (sim_workloads.cpp and serve_workloads.cpp).
Outcome sim_single(const Options& o);
Outcome fig1_grid(const Options& o);
Outcome tournament(const Options& o);
Outcome serve_hits(const Options& o);
Outcome serve_misses(const Options& o);

}  // namespace ppf::bench
