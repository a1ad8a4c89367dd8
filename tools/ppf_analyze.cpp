// ppf_analyze — whole-tree static analysis for the ppf repo.
//
// One tokenizer (src/analyze) feeds every pass: include-layer DAG
// against docs/LAYERS.md, determinism taint from the simulation hot
// path, lock discipline over PPF_GUARDED_BY annotations, unified
// source<->docs catalogs, and the convention rules.
// Rule catalogue: docs/ANALYSIS.md.
//
// Usage: ppf_analyze [--root DIR] [--json] [--sarif FILE]
//                    [--rule NAME]... [--expect-violations] [--list-rules]
//
// The tree is held clean: a finding is fixed, not grandfathered.
//
// Exit: 0 clean (or, under --expect-violations, at least one finding)
//       1 findings (or, under --expect-violations, none)
//       2 usage or I/O error
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analyze/engine.hpp"
#include "analyze/report.hpp"

namespace fs = std::filesystem;
using namespace ppf::analyze;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: ppf_analyze [--root DIR] [--json] [--sarif FILE]\n"
        "                   [--rule NAME]... [--expect-violations] "
        "[--list-rules]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path sarif_path;
  bool json = false;
  bool sarif = false;
  bool expect_violations = false;
  std::set<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif = true;
      sarif_path = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      only.insert(argv[++i]);
    } else if (arg == "--expect-violations") {
      expect_violations = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : all_rules()) {
        std::cout << r.name << ": " << r.help << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "ppf_analyze: unknown argument: " << arg << "\n";
      return usage(std::cerr, 2);
    }
  }
  if (!only.empty()) {
    for (const std::string& r : only) {
      bool known = false;
      for (const RuleInfo& info : all_rules()) known |= r == info.name;
      if (!known) {
        std::cerr << "ppf_analyze: unknown rule: " << r
                  << " (see --list-rules)\n";
        return 2;
      }
    }
  }
  if (!fs::exists(root)) {
    std::cerr << "ppf_analyze: no such directory: " << root.string() << "\n";
    return 2;
  }
  root = fs::canonical(root);

  const std::vector<Diagnostic> diags = analyze_tree(root, only);

  if (sarif) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "ppf_analyze: cannot write " << sarif_path.string()
                << "\n";
      return 2;
    }
    print_sarif(out, diags);
  }
  if (json) {
    print_json(std::cout, diags);
  } else if (!sarif) {
    print_human(std::cout, diags);
  }

  if (expect_violations) {
    if (diags.empty()) {
      std::cerr << "ppf_analyze: expected violations, found none\n";
      return 1;
    }
    return 0;
  }
  if (diags.empty()) return 0;
  std::cerr << "ppf_analyze: " << diags.size() << " finding(s)\n";
  return 1;
}
