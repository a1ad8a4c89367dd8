// ppf::analyze — project source model.
//
// Loads the tree once (src/**/*.{hpp,cpp,h,cc} plus the docs corpus),
// tokenizes every file, and derives the shared lexical structures the
// passes consume:
//
//   * per-file token streams (analyze/token.hpp),
//   * `// ppf:hot` ... `// ppf:cold` region line ranges,
//   * an approximate function index: every function/method *definition*
//     with its qualified name, class context, and body token span —
//     built by a forward heuristic parse (scope stack over namespaces
//     and classes; bodies are attributed whole, so lambdas and local
//     structs belong to their enclosing function).
//
// The function index is approximate by design (no template
// instantiation, no overload resolution — callees resolve by name). The
// passes that use it (determinism taint, lock discipline) are
// conventions checkers, not compilers: an over-approximation that names
// real code is exactly what they need.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analyze/token.hpp"

namespace ppf::analyze {

struct SourceFile {
  std::string rel;   ///< repo-relative, '/' separators ("src/mem/cache.hpp")
  std::string dir;   ///< top directory under src/ ("mem"); empty otherwise
  bool header = false;
  std::vector<Token> toks;
  /// [first,last] physical-line ranges between // ppf:hot and // ppf:cold
  /// markers (to EOF when unclosed).
  std::vector<std::pair<std::size_t, std::size_t>> hot_regions;

  [[nodiscard]] bool line_is_hot(std::size_t line) const {
    for (const auto& [lo, hi] : hot_regions) {
      if (line >= lo && line <= hi) return true;
    }
    return false;
  }
};

struct FunctionDef {
  std::string name;        ///< unqualified ("cycle", "~Cache")
  std::string qual;        ///< qualified tail ("OooCore::cycle")
  std::string class_name;  ///< enclosing/explicit class, if any
  std::size_t file = 0;    ///< index into Project::files
  std::size_t tok_begin = 0;  ///< body span [tok_begin, tok_end)
  std::size_t tok_end = 0;    ///< (excludes the braces themselves)
  std::size_t line = 0;       ///< definition line (the name token's)
  std::size_t body_end_line = 0;
  bool ctor_dtor = false;
};

class Project {
 public:
  /// Load and tokenize everything under `root`/src. Also reads the docs
  /// corpus (README.md + docs/*.md) for the catalog pass.
  static Project load(const std::filesystem::path& root);

  std::filesystem::path root;
  std::vector<SourceFile> files;
  std::vector<FunctionDef> funcs;
  /// Unqualified-name -> indices into funcs (call-graph resolution).
  std::multimap<std::string, std::size_t> funcs_by_name;
  /// README.md + docs/*.md concatenated, for word-boundary doc lookups.
  std::string docs_corpus;

  /// `word` present in `text` with non-identifier chars on both sides.
  static bool contains_word(const std::string& text, const std::string& word);

  /// Read a file as a string ("" when missing).
  static std::string read_text(const std::filesystem::path& p);

  /// The function whose body span contains token index `ti` of file
  /// `fi`, or nullptr.
  [[nodiscard]] const FunctionDef* enclosing_function(std::size_t fi,
                                                      std::size_t ti) const;
};

/// Build the function index for one file (exposed for tests).
std::vector<FunctionDef> index_functions(const SourceFile& f,
                                         std::size_t file_index);

}  // namespace ppf::analyze
