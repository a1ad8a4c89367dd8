// Layer-spec parsing and baseline mechanics (the pure in-memory pieces;
// the end-to-end pass behavior is covered by the CTest fixture runs of
// the ppf_analyze binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/engine.hpp"
#include "analyze/layers.hpp"

namespace ppf::analyze {
namespace {

TEST(LayerSpec, ParsesFencedBlock) {
  const LayerSpec spec = parse_layer_spec(
      "# Layers\n"
      "prose before\n"
      "```ppf-layers\n"
      "common ->\n"
      "mem -> common   # caches\n"
      "sim -> common mem\n"
      "```\n"
      "prose after\n");
  ASSERT_TRUE(spec.loaded);
  EXPECT_TRUE(spec.declares("common"));
  EXPECT_TRUE(spec.allows("mem", "common"));
  EXPECT_TRUE(spec.allows("sim", "mem"));
  EXPECT_FALSE(spec.allows("common", "mem"));
  EXPECT_TRUE(spec.allows("mem", "mem"));  // same layer always allowed
}

TEST(LayerSpec, MissingBlockMeansNotLoaded) {
  EXPECT_FALSE(parse_layer_spec("no fenced block here\n").loaded);
  EXPECT_FALSE(parse_layer_spec("").loaded);
}

TEST(LayerSpec, OtherFencedBlocksAreIgnored) {
  const LayerSpec spec = parse_layer_spec(
      "```cpp\nint x; // a -> b is not a spec line\n```\n"
      "```ppf-layers\na -> b\n```\n");
  ASSERT_TRUE(spec.loaded);
  EXPECT_TRUE(spec.allows("a", "b"));
  EXPECT_FALSE(spec.declares("x"));
}

TEST(Baseline, RenderLoadRoundTripIsByteStable) {
  std::vector<Diagnostic> diags = {
      {"no-bare-assert", "src/b.cpp", 9, 3, "bare assert(); use PPF", ""},
      {"taint-wallclock", "src/a.cpp", 4, 1, "`rand` in `f`", "hint"},
      {"no-bare-assert", "src/b.cpp", 20, 3, "bare assert(); use PPF", ""},
  };
  const std::string once = render_baseline(diags);
  // Line numbers do not appear; duplicate (rule,file,message) collapse.
  EXPECT_EQ(once.find('9'), std::string::npos);
  const std::string tmp =
      ::testing::TempDir() + "/ppf_analyze_baseline_roundtrip.txt";
  {
    std::ofstream out(tmp);
    out << once;
  }
  const Baseline b = load_baseline(tmp);
  ASSERT_TRUE(b.loaded);
  ASSERT_EQ(b.entries.size(), 2u);
  // Re-render from what loaded: byte-identical (the --fix-baseline
  // determinism contract).
  std::vector<Diagnostic> again;
  for (const BaselineEntry& e : b.entries) {
    again.push_back({e.rule, e.file, 0, 0, e.message, ""});
  }
  EXPECT_EQ(render_baseline(again), once);
}

TEST(Baseline, ApplySplitsFreshSuppressedAndStale) {
  Baseline b;
  b.loaded = true;
  b.entries = {{"r1", "f1", "m1"}, {"r2", "f2", "m2"}};
  std::sort(b.entries.begin(), b.entries.end());

  const std::vector<Diagnostic> diags = {
      {"r1", "f1", 3, 1, "m1", ""},   // covered
      {"r3", "f3", 7, 1, "m3", ""},   // fresh
  };
  std::vector<Diagnostic> fresh;
  std::vector<Diagnostic> suppressed;
  const auto stale = apply_baseline(b, diags, fresh, suppressed);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "r3");
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].rule, "r1");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "r2");
}

TEST(Baseline, MissingFileLoadsEmpty) {
  const Baseline b = load_baseline("/nonexistent/ppf/baseline.txt");
  EXPECT_FALSE(b.loaded);
  EXPECT_TRUE(b.entries.empty());
}

TEST(Diagnostics, SortIsByFileLineColRule) {
  std::vector<Diagnostic> d = {
      {"z-rule", "b.cpp", 1, 1, "m", ""},
      {"a-rule", "a.cpp", 9, 1, "m", ""},
      {"a-rule", "a.cpp", 2, 5, "m", ""},
      {"b-rule", "a.cpp", 2, 5, "m", ""},
  };
  sort_diagnostics(d);
  EXPECT_EQ(d[0].file, "a.cpp");
  EXPECT_EQ(d[0].line, 2u);
  EXPECT_EQ(d[0].rule, "a-rule");
  EXPECT_EQ(d[1].rule, "b-rule");
  EXPECT_EQ(d[2].line, 9u);
  EXPECT_EQ(d[3].file, "b.cpp");
}

}  // namespace
}  // namespace ppf::analyze
