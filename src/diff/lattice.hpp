// ppf::diff — configuration lattice sampling.
//
// The differential harness does not enumerate configurations; it samples
// random-but-valid points from a knob lattice: the rows of
// sim::config_schema() that carry sample values, each an override key
// with a closed set of known-good values in its domain. So a sampled
// point is always a configuration the simulator accepts — a throw from
// to_config() is itself a harness bug, never "bad luck".
//
// Sampling is deterministic: a point is a pure function of the Xorshift
// stream it is drawn from, and the harness derives one stream per trial
// from (master seed, trial index), so verdicts are identical whether the
// trials run on one worker or eight.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/random.hpp"
#include "sim/sim_config.hpp"

namespace ppf::diff {

/// One sampled configuration point: the run frame (benchmark, seed,
/// instruction budgets) plus an ordered list of key=value overrides.
/// Overrides are kept as strings so a point shrinks, prints, and
/// round-trips through the CLI without loss.
struct ConfigPoint {
  std::string benchmark;
  std::uint64_t seed = 0;
  std::uint64_t instructions = 0;
  std::uint64_t warmup = 0;
  std::vector<std::pair<std::string, std::string>> overrides;

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string value_of(std::string_view key,
                                     std::string fallback) const;

  /// The point as a ppf_sim-compatible argument string:
  /// "bench=gcc seed=7 instructions=24000 warmup=0 filter=pc ...".
  /// This is the repro string reported for violations.
  [[nodiscard]] std::string repro() const;

  /// The point's overrides (frame included) as a ParamMap, ready for
  /// sim::apply_overrides.
  [[nodiscard]] ParamMap params() const;
};

/// Sampler shape: the run-frame axes and the per-knob inclusion
/// probability. Defaults keep single trials cheap enough that a 50-trial
/// sweep with every oracle enabled finishes in seconds.
struct SampleSpec {
  std::vector<std::string> benchmarks = {"gcc", "mcf", "gzip", "em3d",
                                         "perimeter"};
  std::vector<std::uint64_t> instruction_budgets = {24000, 48000};
  std::vector<std::uint64_t> warmups = {0, 8000};
  double knob_prob = 0.35;
};

/// Draw one point: pick the frame uniformly, then include each lattice
/// knob independently with probability `spec.knob_prob` and pick one of
/// its samples uniformly, knobs in schema order. Deterministic in `rng`.
ConfigPoint sample_point(Xorshift& rng, const SampleSpec& spec);

/// Paper-default SimConfig with the point's frame + overrides applied.
/// Throws std::invalid_argument on an invalid point (harness bug).
sim::SimConfig to_config(const ConfigPoint& point);

}  // namespace ppf::diff
