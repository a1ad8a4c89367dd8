#include "diff/lattice.hpp"

#include <stdexcept>

#include "sim/config_apply.hpp"

namespace ppf::diff {

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
  // Keys the harness reserves for itself (instructions/warmup/seed, the
  // check and diff_fail_at hooks) have no samples: the oracles set those,
  // and sampling them would fight the pairings.
  for (const sim::ConfigRow& row : sim::config_schema()) {
    if (row.samples.empty()) continue;
    // One chance() draw per knob whether or not it is included, so the
    // frame and every knob consume a fixed slice of the stream.
    const bool include = rng.chance(spec.knob_prob);
    const std::uint64_t pick = rng.below(row.samples.size());
    if (include) pt.overrides.emplace_back(row.name, row.samples[pick]);
  }
  return pt;
}

sim::SimConfig to_config(const ConfigPoint& point) {
  sim::SimConfig cfg;
  sim::apply_overrides(cfg, point.params());
  return cfg;
}

}  // namespace ppf::diff
