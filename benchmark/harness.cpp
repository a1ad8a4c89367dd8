// ppf_benchmark — runs one benchmark workload and reports its metrics.
//
//   ppf_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke 0|1]
//   ppf_benchmark --describe
//
// Prints every metric by name with its unit, then a `digest` line, then
// as the last line one JSON object: {"correct","attempted","failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end catalogue
// below, with --trace 1 the per-layer catalogue (a layer a workload does
// not exercise reads 0). Both catalogues must match BENCHMARK.json.
//
// Correctness: every pass over a unit of work must fold to the same
// result digest, traced passes included, and the workload digest must
// equal the one digests.txt pins for this (workload, scale, seed), when
// it pins one. Any mismatch counts every operation as failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/hash.hpp"
#include "harness.hpp"

namespace ppf::bench {

namespace {

struct MetricDoc {
  const char* name;
  const char* unit;
};

/// A run makes at least this many cycles, so every unit has at least two
/// plain passes to choose from.
constexpr std::size_t kMinCycles = 2;

/// How many of `n` repeated timings represent them (see finish()): the
/// fastest one in 64, at least one. On the 4-vCPU reference host a fixed
/// 10 ms computation, timed back to back in 24 s windows for five
/// minutes, spread 0.034 across windows by its fastest time, 0.042 by the
/// mean of its fastest 1%, 0.07 by its fastest 5% and 0.09 by its fastest
/// 10%: other tenants slow most passes, and only the fastest few follow
/// the program.
std::size_t fastest_count(std::size_t n) {
  return std::max<std::size_t>(1, n / 64);
}

/// Mean of the fastest_count() smallest of repeated timings.
double fastest_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = fastest_count(v.size());
  return std::accumulate(v.begin(), v.begin() + n, 0.0) /
         static_cast<double>(n);
}

const MetricDoc kEndToEnd[] = {
    {"wall_s", "s"},  {"ops_per_s", "1/s"},     {"latency_p50_ms", "ms"},
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

const MetricDoc kPerLayer[] = {
    {"workload.arena_builds", "count"},
    {"workload.arena_build_s", "s"},
    {"workload.arena_mb", "MB"},
    {"sim.simulate_s", "s"},
    {"sim.cycles", "count"},
    {"sim.host_ns_per_cycle", "ns"},
    {"sim.host_ns_per_inst", "ns"},
    {"sim.stage.fetch_s", "s"},
    {"sim.stage.probe_s", "s"},
    {"sim.stage.retire_s", "s"},
    {"sim.stage.memsys_s", "s"},
    {"sim.stage.probe_records", "count"},
    {"sim.stage.memsys_records", "count"},
    {"sim.stage_sum_over_simulate", "ratio"},
    {"filter.admit_calls", "count"},
    {"filter.admit_s", "s"},
    {"filter.feedback_calls", "count"},
    {"filter.feedback_s", "s"},
    {"filter.reject_ratio", "ratio"},
    {"mem.l1d_miss_rate", "ratio"},
    {"mem.l2_miss_rate", "ratio"},
    {"mem.bus_busy_cycles", "count"},
    {"prefetch.issued", "count"},
    {"prefetch.useful_ratio", "ratio"},
    {"paper.ipc_gain_pc_pct", "%"},
    {"paper.bad_cut_pc_pct", "%"},
    {"snapshot.builds", "count"},
    {"snapshot.hits", "count"},
    {"snapshot.resumes", "count"},
    {"snapshot.evictions", "count"},
    {"snapshot.hit_ratio", "ratio"},
    {"runlab.probe_s", "s"},
    {"runlab.simulate_s", "s"},
    {"runlab.job_wall_p50_ms", "ms"},
    {"runlab.job_wall_max_ms", "ms"},
    {"runlab.utilization", "ratio"},
    {"runlab.trace_hits", "count"},
    {"runlab.trace_evictions", "count"},
    {"serve.parse_us", "us"},
    {"serve.memo_lookup_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.request_us", "us"},
    {"serve.socket_us", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.cache_probe_ms_p50", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.latency_p999_ms", "ms"},
    {"latency.tail_ms", "ms"},
    {"latency.samples", "count"},
    {"trace.clock_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

struct WorkloadEntry {
  const char* name;
  Outcome (*run)(const Options&);
};

const WorkloadEntry kWorkloads[] = {
    {"sim_single", sim_single},
    {"fig1_grid", fig1_grid},
    {"tournament", tournament},
    {"serve_hits", serve_hits},
    {"serve_misses", serve_misses},
};

double calibrate_clock_ns() {
  constexpr int kReads = 1'000'000;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  for (int i = 0; i < kReads; ++i) last = Clock::now();
  return std::chrono::duration<double, std::nano>(last - t0).count() / kReads;
}

/// Shortest round-trip rendering; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pinned digest for (workload, scale, seed) from digests.txt, a file of
/// "workload scale seed digest" lines; "" when none is pinned.
std::string pinned_digest(const std::string& workload, const std::string& scale,
                          std::uint64_t seed) {
  std::ifstream in(PPF_BENCH_DIGESTS);
  if (!in) {
    throw std::runtime_error(std::string("cannot read ") + PPF_BENCH_DIGESTS);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, s, digest;
    std::uint64_t pinned_seed = 0;
    if (fields >> w >> s >> pinned_seed >> digest && w == workload &&
        s == scale && pinned_seed == seed) {
      return digest;
    }
  }
  return "";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int describe() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::cout << "{\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"cpu\":\"" << json_escape(cpu) << "\",\"compiler\":\""
            << json_escape(PPF_BENCH_COMPILER) << "\",\"flags\":\""
            << json_escape(PPF_BENCH_FLAGS) << "\"}\n";
  return 0;
}

int usage(const char* argv0, const std::string& why) {
  std::cerr << argv0 << ": " << why << "\nusage: " << argv0
            << " --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
               " [--smoke 0|1]\n       "
            << argv0 << " --describe\nworkloads:";
  for (const WorkloadEntry& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

bool parse_flag(const std::string& v) {
  if (v == "0") return false;
  if (v == "1") return true;
  throw std::invalid_argument("expected 0 or 1, got '" + v + "'");
}

}  // namespace

double clock_ns() {
  static const double ns = calibrate_clock_ns();
  return ns;
}

double elapsed_s(Clock::time_point t0) {
  const double s = std::chrono::duration<double>(Clock::now() - t0).count() -
                   clock_ns() * 1e-9;
  return s > 0 ? s : 0;
}

void release_memory() { malloc_trim(0); }

std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, std::size_t k) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(seed * k + i);
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  // Separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(mix64(h_)));
  return buf;
}

void Outcome::check_digest(std::size_t unit, const std::string& d,
                           const char* what) {
  if (unit_digests.size() <= unit) unit_digests.resize(unit + 1);
  std::string& first = unit_digests[unit];
  if (first.empty()) {
    first = d;
  } else if (d != first) {
    errors.push_back(std::string(what) + " of unit " + std::to_string(unit) +
                     ": digest " + d + " differs from the first pass's " +
                     first);
  }
}

RunLog run_units(const Options& o, std::size_t units,
                 const std::function<Pass(std::size_t)>& plain,
                 const std::function<double(Layers&)>& traced) {
  RunLog log;
  log.plain.resize(units);
  std::vector<double> cost_s;  // whole duration of each cycle
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < units; ++k) {
      log.plain[k].push_back(plain(k));
      // Peak memory over set-up and the first pass. Later passes only add
      // chances at a higher peak, and where a unit is a daemon lifetime
      // they add the allocator's leftovers from earlier daemons in this
      // process, which a restarted daemon would not have.
      if (cost_s.empty() && k == 0) log.peak_rss_mb = peak_rss_mb();
      release_memory();
    }
    if (o.trace) {
      log.layers.emplace_back();
      log.traced_wall_s.push_back(traced(log.layers.back()));
      release_memory();
    }
    cost_s.push_back(elapsed_s(t0));
    if (cost_s.size() >= kMinCycles &&
        elapsed_s(start) + median(cost_s) > o.seconds) {
      break;
    }
  }
  return log;
}

std::vector<double> finish(RunLog log, double ops, double tail_p,
                           const std::vector<double>& setup_s, Outcome& out) {
  Digest folded;
  for (const std::string& d : out.unit_digests) folded.add(d);
  out.digest = folded.hex();

  double wall = 0;
  std::vector<double> op_s;
  for (std::vector<Pass>& passes : log.plain) {
    std::sort(passes.begin(), passes.end(),
              [](const Pass& a, const Pass& b) { return a.wall_s < b.wall_s; });
    const std::size_t fastest = fastest_count(passes.size());
    double unit_wall = 0;
    for (std::size_t i = 0; i < fastest; ++i) {
      unit_wall += passes[i].wall_s;
      op_s.insert(op_s.end(), passes[i].op_s.begin(), passes[i].op_s.end());
    }
    wall += unit_wall / static_cast<double>(fastest);
  }
  out.end_to_end["wall_s"] = wall;
  out.end_to_end["ops_per_s"] = wall > 0 ? ops / wall : 0;
  out.end_to_end["latency_p50_ms"] = median(op_s) * 1e3;
  out.end_to_end["setup_s"] = median(setup_s);
  out.end_to_end["peak_rss_mb"] = log.peak_rss_mb;

  std::map<std::string, std::vector<double>> samples;
  for (const Layers& l : log.layers) {
    for (const auto& [name, v] : l) samples[name].push_back(v);
  }
  for (const auto& [name, v] : samples) out.layers[name] = median(v);
  out.layers["latency.tail_ms"] = percentile(op_s, tail_p) * 1e3;
  out.layers["latency.samples"] = static_cast<double>(op_s.size());
  if (!log.traced_wall_s.empty() && wall > 0) {
    out.layers["trace.overhead_ratio"] =
        fastest_mean(log.traced_wall_s) / wall - 1;
  }
  out.log = std::move(log);
  return op_s;
}

void ResultTotals::add(const sim::SimResult& r) {
  cycles += r.core.cycles;
  instructions += r.core.instructions;
  stage_ns[0] += r.core.stages.fetch_ns;
  stage_ns[1] += r.core.stages.probe_ns;
  stage_ns[2] += r.core.stages.retire_ns;
  stage_ns[3] += r.core.stages.memsys_ns;
  probe_records += r.core.stages.probe_records;
  memsys_records += r.core.stages.memsys_records;
  l1d_accesses += r.l1d_demand_accesses;
  l1d_misses += r.l1d_demand_misses;
  l2_accesses += r.l2_demand_accesses;
  l2_misses += r.l2_demand_misses;
  bus_busy_cycles += r.bus_busy_cycles;
  prefetch_issued += r.prefetch_issued.total();
  good += r.good_total();
  bad += r.bad_total();
}

ResultTotals& ResultTotals::operator+=(const ResultTotals& o) {
  cycles += o.cycles;
  instructions += o.instructions;
  for (int i = 0; i < 4; ++i) stage_ns[i] += o.stage_ns[i];
  probe_records += o.probe_records;
  memsys_records += o.memsys_records;
  l1d_accesses += o.l1d_accesses;
  l1d_misses += o.l1d_misses;
  l2_accesses += o.l2_accesses;
  l2_misses += o.l2_misses;
  bus_busy_cycles += o.bus_busy_cycles;
  prefetch_issued += o.prefetch_issued;
  good += o.good;
  bad += o.bad;
  return *this;
}

void ResultTotals::write(Layers& l, double simulate_s,
                         double stage_cover_s) const {
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  l["sim.simulate_s"] = simulate_s;
  l["sim.cycles"] = static_cast<double>(cycles);
  l["sim.host_ns_per_cycle"] = per(simulate_s * 1e9, cycles);
  l["sim.host_ns_per_inst"] = per(simulate_s * 1e9, instructions);
  l["sim.stage.fetch_s"] = stage_ns[0] * 1e-9;
  l["sim.stage.probe_s"] = stage_ns[1] * 1e-9;
  l["sim.stage.retire_s"] = stage_ns[2] * 1e-9;
  l["sim.stage.memsys_s"] = stage_ns[3] * 1e-9;
  l["sim.stage.probe_records"] = static_cast<double>(probe_records);
  l["sim.stage.memsys_records"] = static_cast<double>(memsys_records);
  l["sim.stage_sum_over_simulate"] =
      per((stage_ns[0] + stage_ns[1] + stage_ns[2] + stage_ns[3]) * 1e-9,
          stage_cover_s);
  l["mem.l1d_miss_rate"] = per(l1d_misses, l1d_accesses);
  l["mem.l2_miss_rate"] = per(l2_misses, l2_accesses);
  l["mem.bus_busy_cycles"] = static_cast<double>(bus_busy_cycles);
  l["prefetch.issued"] = static_cast<double>(prefetch_issued);
  l["prefetch.useful_ratio"] = per(good, good + bad);
}

}  // namespace ppf::bench

int main(int argc, char** argv) {
  using namespace ppf::bench;
  Options o;
  bool workload_given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--describe") return describe();
      if (i + 1 >= argc) return usage(argv[0], "missing value for " + key);
      const std::string value = argv[++i];
      if (key == "--workload") {
        o.workload = value;
        workload_given = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = parse_flag(value);
      } else if (key == "--smoke") {
        o.smoke = parse_flag(value);
      } else {
        return usage(argv[0], "unknown option " + key);
      }
    }
  } catch (const std::exception& e) {
    return usage(argv[0], e.what());
  }
  if (!workload_given) return usage(argv[0], "--workload is required");
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (o.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage(argv[0], "unknown workload " + o.workload);
  if (!(o.seconds > 0)) return usage(argv[0], "--seconds must be positive");

  Outcome out;
  std::string pinned;
  const std::string scale = o.smoke ? "smoke" : "full";
  try {
    clock_ns();  // calibrate before any timing
    pinned = pinned_digest(o.workload, scale, o.seed);
    out = entry->run(o);
  } catch (const std::exception& e) {
    std::cerr << "ppf_benchmark: " << o.workload << ": " << e.what() << '\n';
    return 1;
  }
  if (!pinned.empty() && pinned != out.digest) {
    out.errors.push_back("digest " + out.digest + " differs from pinned " +
                         pinned);
  }
  if (!out.errors.empty()) out.failed = out.attempted;
  out.layers["trace.clock_ns"] = clock_ns();

  // Human-readable report, then the digest, then the result line.
  std::cout << o.workload << " seed=" << o.seed << " scale=" << scale
            << " trace=" << (o.trace ? 1 : 0) << '\n';
  std::size_t fewest = SIZE_MAX, most = 0;
  for (const std::vector<Pass>& passes : out.log.plain) {
    fewest = std::min(fewest, passes.size());
    most = std::max(most, passes.size());
  }
  std::printf("  %zu units, %zu-%zu plain passes each", out.log.plain.size(),
              fewest, most);
  if (o.trace) {
    std::printf("; traced cycle walls (s):");
    for (const double w : out.log.traced_wall_s) std::printf(" %.4f", w);
  }
  std::printf("\n");
  std::ostringstream json;
  bool missing = false;
  const char* sep = "";
  const auto emit = [&](const MetricDoc& m, double v) {
    std::printf("  %-30s %14.6g %s\n", m.name, v, m.unit);
    json << sep << '"' << m.name << "\":{\"value\":" << number(v)
         << ",\"unit\":\"" << m.unit << "\"}";
    sep = ",";
  };
  if (o.trace) {
    for (const MetricDoc& m : kPerLayer) {
      const auto it = out.layers.find(m.name);
      emit(m, it == out.layers.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDoc& m : kEndToEnd) {
      const auto it = out.end_to_end.find(m.name);
      if (it == out.end_to_end.end() || !(it->second > 0)) {
        std::cerr << "ppf_benchmark: end-to-end metric " << m.name
                  << " is missing or not positive\n";
        missing = true;
      }
      emit(m, it == out.end_to_end.end() ? 0.0 : it->second);
    }
  }
  for (const std::string& e : out.errors) {
    std::cerr << "ppf_benchmark: correctness: " << e << '\n';
  }
  std::cout << "digest " << o.workload << ' ' << scale << ' ' << o.seed << ' '
            << out.digest
            << (pinned.empty() ? " (not pinned)"
                               : pinned == out.digest ? " (pinned: match)"
                                                      : " (pinned: MISMATCH)")
            << '\n';
  const bool correct = out.errors.empty() && out.failed == 0 && !missing;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{" << json.str()
            << "}}" << std::endl;
  return 0;
}
