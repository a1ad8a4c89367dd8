// Function indexing and hot-region extraction over synthetic sources.
#include "analyze/source_model.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ppf::analyze {
namespace {

SourceFile make_file(const std::string& text, const std::string& rel) {
  SourceFile f;
  f.rel = rel;
  f.header = rel.size() > 4 && rel.substr(rel.size() - 4) == ".hpp";
  f.toks = tokenize(text);
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const Token& t = f.toks[i];
    if (t.kind != TokKind::Comment) continue;
    if (t.text.find("ppf:hot") != std::string::npos) {
      f.hot_regions.push_back({t.line, static_cast<std::size_t>(-1)});
    } else if (t.text.find("ppf:cold") != std::string::npos &&
               !f.hot_regions.empty()) {
      f.hot_regions.back().second = t.line;
    }
  }
  return f;
}

TEST(SourceModel, IndexesFreeAndMemberFunctions) {
  const SourceFile f = make_file(
      "int free_fn(int a) { return a; }\n"
      "class Widget {\n"
      " public:\n"
      "  int method() const { return 1; }\n"
      "};\n"
      "int Widget_helper() { return 2; }\n",
      "src/sim/x.cpp");
  const auto funcs = index_functions(f, 0);
  ASSERT_EQ(funcs.size(), 3u);
  EXPECT_EQ(funcs[0].name, "free_fn");
  EXPECT_EQ(funcs[0].class_name, "");
  EXPECT_EQ(funcs[1].name, "method");
  EXPECT_EQ(funcs[1].class_name, "Widget");
  EXPECT_EQ(funcs[1].qual, "Widget::method");
  EXPECT_EQ(funcs[2].name, "Widget_helper");
}

TEST(SourceModel, IndexesOutOfLineQualifiedDefinitions) {
  const SourceFile f = make_file(
      "void Engine::cycle() { step(); }\n"
      "Engine::Engine(int n) : n_(n) { init(); }\n"
      "Engine::~Engine() { teardown(); }\n",
      "src/sim/e.cpp");
  const auto funcs = index_functions(f, 0);
  ASSERT_EQ(funcs.size(), 3u);
  EXPECT_EQ(funcs[0].qual, "Engine::cycle");
  EXPECT_EQ(funcs[0].class_name, "Engine");
  EXPECT_FALSE(funcs[0].ctor_dtor);
  EXPECT_TRUE(funcs[1].ctor_dtor);  // ctor, despite the init list
  EXPECT_TRUE(funcs[2].ctor_dtor);  // dtor
}

TEST(SourceModel, IndexesOutOfLineClassTemplateMembers) {
  const SourceFile f = make_file(
      "template <typename Mem>\n"
      "bool Core<Mem>::cycle(int n) { return step(n); }\n"
      "template <typename Mem>\n"
      "Core<Mem>::Core(Mem& m) : m_(m) { init(); }\n"
      "template <typename Mem>\n"
      "std::unique_ptr<Base> Core<Mem>::clone() const { return {}; }\n",
      "src/core/c.hpp");
  const auto funcs = index_functions(f, 0);
  ASSERT_EQ(funcs.size(), 3u);
  EXPECT_EQ(funcs[0].qual, "Core::cycle");
  EXPECT_FALSE(funcs[0].ctor_dtor);
  EXPECT_EQ(funcs[1].qual, "Core::Core");
  EXPECT_TRUE(funcs[1].ctor_dtor);
  EXPECT_EQ(funcs[2].qual, "Core::clone");
}

TEST(SourceModel, LambdaBodyBelongsToEnclosingFunction) {
  const SourceFile f = make_file(
      "void outer() {\n"
      "  auto f = [](int x) { return x + 1; };\n"
      "  f(1);\n"
      "}\n",
      "src/sim/l.cpp");
  const auto funcs = index_functions(f, 0);
  ASSERT_EQ(funcs.size(), 1u);
  EXPECT_EQ(funcs[0].name, "outer");
  // The whole lambda body sits inside outer's token span.
  EXPECT_EQ(funcs[0].body_end_line, 4u);
}

TEST(SourceModel, HotRegionsCoverDefinitions) {
  const SourceFile f = make_file(
      "// ppf:hot\n"
      "void kernel() { work(); }\n"
      "// ppf:cold\n"
      "void slow() { rest(); }\n",
      "src/sim/h.cpp");
  EXPECT_TRUE(f.line_is_hot(2));
  EXPECT_FALSE(f.line_is_hot(4));
}

TEST(SourceModel, ContainsWordRespectsIdentifierBoundaries) {
  EXPECT_TRUE(Project::contains_word("the cache_size knob", "cache_size"));
  EXPECT_FALSE(Project::contains_word("the dcache_size knob", "cache_size"));
  EXPECT_FALSE(Project::contains_word("the cache_sizes knob", "cache_size"));
}

}  // namespace
}  // namespace ppf::analyze
