// Layer-spec parsing and diagnostics ordering (the pure in-memory pieces;
// the end-to-end pass behavior is covered by the CTest fixture runs of
// the ppf_analyze binary).
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
