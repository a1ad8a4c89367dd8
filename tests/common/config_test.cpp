#include "common/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ppf {
namespace {

ParamMap parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ParamMap::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ParamMap, ParsesKeyValueTokens) {
  const ParamMap p = parse({"alpha=1", "beta=hello"});
  EXPECT_TRUE(p.has("alpha"));
  EXPECT_TRUE(p.has("beta"));
  EXPECT_FALSE(p.has("gamma"));
}

TEST(ParamMap, RejectsMalformedTokens) {
  EXPECT_THROW(parse({"no_equals"}), std::invalid_argument);
  EXPECT_THROW(parse({"=value"}), std::invalid_argument);
}

TEST(ParamMap, U64ParsingAndFallback) {
  const ParamMap p = parse({"n=42", "hexed=0x10"});
  EXPECT_EQ(p.get_u64("n", 0), 42u);
  EXPECT_EQ(p.get_u64("hexed", 0), 16u);  // base-0 parsing accepts 0x
  EXPECT_EQ(p.get_u64("missing", 7), 7u);
}

TEST(ParamMap, U64RejectsGarbage) {
  const ParamMap p = parse({"n=12abc", "m=xyz"});
  EXPECT_THROW((void)p.get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64("m", 0), std::invalid_argument);
}

TEST(ParamMap, DoubleParsing) {
  const ParamMap p = parse({"x=0.25"});
  EXPECT_DOUBLE_EQ(p.get_double("x", 0), 0.25);
  EXPECT_DOUBLE_EQ(p.get_double("missing", 1.5), 1.5);
  const ParamMap bad = parse({"x=1.2.3"});
  EXPECT_THROW((void)bad.get_double("x", 0), std::invalid_argument);
}

TEST(ParamMap, BoolParsing) {
  const ParamMap p =
      parse({"a=1", "b=true", "c=off", "d=no", "e=yes", "f=0"});
  EXPECT_TRUE(p.get_bool("a", false));
  EXPECT_TRUE(p.get_bool("b", false));
  EXPECT_FALSE(p.get_bool("c", true));
  EXPECT_FALSE(p.get_bool("d", true));
  EXPECT_TRUE(p.get_bool("e", false));
  EXPECT_FALSE(p.get_bool("f", true));
  EXPECT_TRUE(p.get_bool("missing", true));
  const ParamMap bad = parse({"x=maybe"});
  EXPECT_THROW((void)bad.get_bool("x", false), std::invalid_argument);
}

TEST(ParamMap, StringAndSet) {
  ParamMap p;
  p.set("k", "v");
  EXPECT_EQ(p.get_string("k", ""), "v");
  EXPECT_EQ(p.get_string("other", "dflt"), "dflt");
  p.set("k", "v2");  // overwrite
  EXPECT_EQ(p.get_string("k", ""), "v2");
}

TEST(ParamMap, ValueMayContainEquals) {
  const ParamMap p = parse({"expr=a=b"});
  EXPECT_EQ(p.get_string("expr", ""), "a=b");
}

TEST(ParamMap, U64RejectsNegativeValues) {
  // Regression: stoull("-1") silently wraps to 2^64-1, so seed=-1 used
  // to become 18446744073709551615 instead of an error.
  const ParamMap p = parse({"n=-1", "m=-0", "k= -7"});
  EXPECT_THROW((void)p.get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64("m", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64("k", 0), std::invalid_argument);
}

TEST(ParamMap, U64RejectsWhitespaceOnlyValues) {
  const ParamMap p = parse({"n= ", "m=\t"});
  EXPECT_THROW((void)p.get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64("m", 0), std::invalid_argument);
}

TEST(ParamMap, FromArgsRejectsDuplicateKeys) {
  // Duplicate key=value arguments are a typo until proven otherwise —
  // silently honouring the last occurrence hid real sweep mistakes.
  EXPECT_THROW(parse({"seed=1", "seed=2"}), std::invalid_argument);
  EXPECT_THROW(parse({"a=1", "b=2", "a=1"}), std::invalid_argument);
  // Programmatic set() still overwrites (used for defaults).
  ParamMap p = parse({"a=1"});
  p.set("a", "2");
  EXPECT_EQ(p.get_string("a", ""), "2");
}

TEST(ParamMap, FromStringSplitsOnWhitespaceAndKeepsTheTokenRule) {
  const ParamMap p = ParamMap::from_string("  a=1\tb=x=y \n c= ");
  EXPECT_EQ(p.get_u64("a", 0), 1u);
  EXPECT_EQ(p.get_string("b", ""), "x=y");
  EXPECT_EQ(p.get_string("c", "unset"), "");
  EXPECT_TRUE(ParamMap::from_string(" \t\n").entries().empty());
  EXPECT_THROW(ParamMap::from_string("a=1 no_equals"), std::invalid_argument);
  EXPECT_THROW(ParamMap::from_string("a=1 =2"), std::invalid_argument);
  EXPECT_THROW(ParamMap::from_string("seed=1 a=2 seed=1"),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppf
