// ppf::diff unit tests: the knob lattice, point sampling/repro,
// signatures, and the shrinker — everything below the harness loop.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "diff/diff.hpp"
#include "diff/lattice.hpp"
#include "diff/oracles.hpp"
#include "diff/shrink.hpp"
#include "diff/signature.hpp"
#include "sim/config_apply.hpp"
#include "sim/experiment.hpp"

namespace ppf::diff {
namespace {

TEST(Lattice, EveryKnobKeyIsADocumentedOverride) {
  // The lattice is the schema rows with samples; each is an override key.
  std::size_t knobs = 0;
  for (const sim::ConfigRow& row : sim::config_schema()) {
    if (row.samples.empty()) continue;
    ++knobs;
    EXPECT_TRUE(row.key) << "lattice knob '" << row.name
                         << "' is not an override key";
  }
  EXPECT_GT(knobs, 0u);
}

TEST(Lattice, EveryKnobValueBuildsAValidConfig) {
  // One config per (knob, value): apply_overrides must accept each in
  // isolation — a sampled point is valid by construction.
  for (const sim::ConfigRow& row : sim::config_schema()) {
    for (const std::string_view value : row.samples) {
      ConfigPoint pt;
      pt.benchmark = "mcf";
      pt.seed = 1;
      pt.instructions = 1000;
      pt.warmup = 0;
      pt.overrides.emplace_back(row.name, value);
      EXPECT_NO_THROW((void)to_config(pt)) << row.name << "=" << value;
    }
  }
}

TEST(Lattice, SamplingIsDeterministicInTheRngStream) {
  const SampleSpec spec;
  Xorshift a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sample_point(a, spec).repro(), sample_point(b, spec).repro());
  }
}

TEST(Lattice, SampledPointsAreAlwaysValid) {
  const SampleSpec spec;
  Xorshift rng(7);
  for (int i = 0; i < 200; ++i) {
    const ConfigPoint pt = sample_point(rng, spec);
    EXPECT_NO_THROW((void)to_config(pt)) << pt.repro();
    EXPECT_TRUE(std::find(spec.benchmarks.begin(), spec.benchmarks.end(),
                          pt.benchmark) != spec.benchmarks.end());
  }
}

TEST(Lattice, ReproStringRoundTripsThroughParams) {
  ConfigPoint pt;
  pt.benchmark = "gcc";
  pt.seed = 42;
  pt.instructions = 24000;
  pt.warmup = 8000;
  pt.overrides.emplace_back("filter", "pc");
  pt.overrides.emplace_back("l1d_kb", "16");
  EXPECT_EQ(pt.repro(),
            "bench=gcc seed=42 instructions=24000 warmup=8000 filter=pc "
            "l1d_kb=16");
  const ParamMap p = pt.params();
  EXPECT_EQ(p.get_u64("seed", 0), 42u);
  EXPECT_EQ(p.get_u64("instructions", 0), 24000u);
  EXPECT_EQ(p.get_string("filter", ""), "pc");
  const sim::SimConfig cfg = to_config(pt);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.l1d.size_bytes, 16u * 1024u);
}

TEST(TrialSeeds, AreStableAndDecorrelated) {
  // Pinned: the per-trial derivation is part of the repro contract —
  // "seed=42 trial=3" must mean the same point in every build.
  EXPECT_EQ(trial_seed(42, 0), trial_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 100; ++t) seen.insert(trial_seed(42, t));
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));
}

TEST(Signature, IsByteStableAndCoversTheResult) {
  sim::SimConfig cfg;
  cfg.max_instructions = 5'000;
  const sim::SimResult r = sim::run_benchmark(cfg, "mcf");
  const std::string a = result_signature(r);
  EXPECT_EQ(a, result_signature(r));
  for (const char* field :
       {"core.cycles=", "l1d_demand_misses=", "prefetch_issued=",
        "energy.l1_nj=", "filter_admitted=", "taxonomy.useless="}) {
    EXPECT_NE(a.find(field), std::string::npos) << field;
  }
}

TEST(Signature, FirstDivergenceNamesTheField) {
  sim::SimConfig cfg;
  cfg.max_instructions = 5'000;
  const sim::SimResult r = sim::run_benchmark(cfg, "mcf");
  sim::SimResult s = r;
  s.bus_transfers += 1;
  const std::string d =
      first_divergence(result_signature(r), result_signature(s));
  EXPECT_NE(d.find("bus_transfers"), std::string::npos) << d;
  EXPECT_EQ(first_divergence(result_signature(r), result_signature(r)), "");
}

ConfigPoint noisy_point() {
  ConfigPoint pt;
  pt.benchmark = "mcf";
  pt.seed = 5;
  pt.instructions = 48000;
  pt.warmup = 8000;
  pt.overrides.emplace_back("l1d_kb", "16");
  pt.overrides.emplace_back("nsp_degree", "4");
  pt.overrides.emplace_back("victim_entries", "8");
  pt.overrides.emplace_back("rob", "32");
  return pt;
}

TEST(Shrink, StripsIrrelevantOverridesToTheGuiltyOne) {
  // Failure depends only on nsp_degree: shrinking must strip the other
  // three overrides and reduce the frame.
  const StillFails pred = [](const ConfigPoint& pt) {
    return pt.has("nsp_degree");
  };
  const ShrinkResult s = shrink_point(noisy_point(), pred, 64, 24000);
  ASSERT_EQ(s.point.overrides.size(), 1u);
  EXPECT_EQ(s.point.overrides[0].first, "nsp_degree");
  EXPECT_EQ(s.point.warmup, 0u);
  EXPECT_EQ(s.point.instructions, 24000u);
  EXPECT_FALSE(s.budget_exhausted);
}

TEST(Shrink, KeepsJointlyNecessaryOverrides) {
  const StillFails pred = [](const ConfigPoint& pt) {
    return pt.has("nsp_degree") && pt.has("victim_entries");
  };
  const ShrinkResult s = shrink_point(noisy_point(), pred, 64, 24000);
  ASSERT_EQ(s.point.overrides.size(), 2u);
  EXPECT_TRUE(s.point.has("nsp_degree"));
  EXPECT_TRUE(s.point.has("victim_entries"));
}

TEST(Shrink, RespectsTheEvaluationBudget) {
  std::size_t calls = 0;
  const StillFails pred = [&calls](const ConfigPoint&) {
    ++calls;
    return true;  // everything "fails": shrink would strip all overrides
  };
  const ShrinkResult s = shrink_point(noisy_point(), pred, 2, 24000);
  EXPECT_TRUE(s.budget_exhausted);
  EXPECT_EQ(s.evaluations, 2u);
  EXPECT_EQ(calls, 2u);
  // Budget 0: the start point comes back untouched.
  const ShrinkResult z = shrink_point(noisy_point(), pred, 0, 24000);
  EXPECT_EQ(z.point.repro(), noisy_point().repro());
  EXPECT_EQ(z.evaluations, 0u);
}

TEST(Oracles, CatalogueIsNonEmptyWithUniqueDocumentedIds) {
  std::set<std::string> ids;
  for (const Oracle& o : oracle_catalogue()) {
    EXPECT_TRUE(o.id.rfind("diff.", 0) == 0) << o.id;
    EXPECT_FALSE(o.summary.empty()) << o.id;
    EXPECT_TRUE(ids.insert(o.id).second) << "duplicate oracle ID " << o.id;
  }
  EXPECT_GE(ids.size(), 10u);
  EXPECT_TRUE(ids.count("diff.repeat_determinism") == 1);
  EXPECT_TRUE(ids.count("diff.cold_vs_snapshot") == 1);
}

TEST(Oracles, TripwireFlagsExactlyThePlantedKnob) {
  const Oracle trip = tripwire_oracle();
  ConfigPoint clean;
  clean.benchmark = "mcf";
  clean.instructions = 1000;
  OracleContext cctx(clean);
  EXPECT_TRUE(trip.evaluate(cctx).ok);

  ConfigPoint planted = clean;
  planted.overrides.emplace_back("nsp_degree", "4");
  OracleContext pctx(planted);
  const OracleOutcome out = trip.evaluate(pctx);
  EXPECT_TRUE(out.applicable);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.detail.find("nsp_degree"), std::string::npos);
}

}  // namespace
}  // namespace ppf::diff
