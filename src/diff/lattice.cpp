#include "diff/lattice.hpp"

#include <stdexcept>

#include "sim/config_apply.hpp"

namespace ppf::diff {

const std::vector<Knob>& default_lattice() {
  // Values are drawn from the paper's evaluated design space plus the
  // boundary settings the tests already exercise. Keys the harness
  // reserves for itself (check/check_period/check_fail_at/diff_fail_at,
  // instructions/warmup/seed) are deliberately absent: the oracles set
  // those, and sampling them would fight the pairings.
  static const std::vector<Knob> lattice = {
      {"filter",
       {"none", "pa", "pc", "static", "adaptive", "deadblock", "perceptron"}},
      {"history_entries", {"256", "1024", "4096"}},
      {"history_bits", {"1", "2", "3"}},
      {"history_init", {"0", "1"}},
      {"history_hash", {"modulo", "fold-xor", "fibonacci", "mix64"}},
      {"source_separated", {"0", "1"}},
      {"recovery_entries", {"0", "8", "32"}},
      {"l1d_kb", {"8", "16", "32"}},
      {"l1d_ports", {"3", "4", "5"}},
      {"l2_kb", {"256", "512"}},
      {"line_bytes", {"16", "32", "64"}},
      {"mem_latency", {"60", "120", "200"}},
      {"bus_cycles_per_beat", {"2", "4"}},
      {"queue_entries", {"8", "16", "32"}},
      {"mshr", {"0", "4", "8"}},
      {"victim_entries", {"0", "8"}},
      {"prefetch_l2", {"0", "1"}},
      {"prefetch_buffer", {"0", "1"}},
      // Registry-keyed prefetcher lists (replaces the old per-prefetcher
      // booleans; order within a list is part of the machine).
      {"prefetchers",
       {"", "nsp", "nsp,sdp", "sdp,nsp", "nsp,sdp,stride", "stride,markov",
        "nsp,sdp,pmp", "pmp", "stream_buffer,nsp"}},
      {"nsp_degree", {"1", "2", "4"}},
      {"replacement", {"lru", "fifo", "random", "srrip", "brrip", "lip"}},
      {"pmp_region_lines", {"16", "32"}},
      {"pmp_degree_cap", {"0", "4", "8"}},
      {"taxonomy", {"0", "1"}},
      {"swpf", {"0", "1"}},
      {"core_model", {"occupancy", "dataflow"}},
      {"width", {"2", "4"}},
      {"rob", {"32", "64"}},
      {"lsq", {"16", "32"}},
      {"dep_prob", {"0.0", "0.25", "0.5"}},
  };
  return lattice;
}

bool ConfigPoint::has(std::string_view key) const {
  for (const auto& [k, v] : overrides) {
    if (k == key) return true;
  }
  return false;
}

std::string ConfigPoint::value_of(std::string_view key,
                                  std::string fallback) const {
  for (const auto& [k, v] : overrides) {
    if (k == key) return v;
  }
  return fallback;
}

std::string ConfigPoint::repro() const {
  std::string s = "bench=" + benchmark + " seed=" + std::to_string(seed) +
                  " instructions=" + std::to_string(instructions) +
                  " warmup=" + std::to_string(warmup);
  for (const auto& [k, v] : overrides) {
    s += ' ';
    s += k;
    s += '=';
    s += v;
  }
  return s;
}

ParamMap ConfigPoint::params() const {
  ParamMap p;
  p.set("instructions", std::to_string(instructions));
  p.set("warmup", std::to_string(warmup));
  p.set("seed", std::to_string(seed));
  for (const auto& [k, v] : overrides) p.set(k, v);
  return p;
}

ConfigPoint sample_point(Xorshift& rng, const SampleSpec& spec) {
  if (spec.benchmarks.empty() || spec.instruction_budgets.empty() ||
      spec.warmups.empty()) {
    throw std::invalid_argument("sample_point: empty SampleSpec axis");
  }
  ConfigPoint pt;
  pt.benchmark = spec.benchmarks[rng.below(spec.benchmarks.size())];
  pt.seed = rng.below(100000);
  pt.instructions =
      spec.instruction_budgets[rng.below(spec.instruction_budgets.size())];
  pt.warmup = spec.warmups[rng.below(spec.warmups.size())];
  for (const Knob& knob : default_lattice()) {
    // One chance() draw per knob whether or not it is included, so the
    // frame and every knob consume a fixed slice of the stream.
    const bool include = rng.chance(spec.knob_prob);
    const std::uint64_t pick = rng.below(knob.values.size());
    if (include) pt.overrides.emplace_back(knob.key, knob.values[pick]);
  }
  return pt;
}

sim::SimConfig to_config(const ConfigPoint& point) {
  sim::SimConfig cfg;
  sim::apply_overrides(cfg, point.params());
  return cfg;
}

}  // namespace ppf::diff
