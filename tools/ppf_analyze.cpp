// ppf_analyze — whole-tree static analysis for the ppf repo.
//
// One tokenizer (src/analyze) feeds every pass: include-layer DAG
// against docs/LAYERS.md, determinism taint from the simulation hot
// path, lock discipline over PPF_GUARDED_BY annotations, unified
// source<->docs catalogs, and the convention rules.
// Rule catalogue: docs/ANALYSIS.md.
//
// Usage: ppf_analyze [--root DIR] [--json] [--sarif FILE]
//                    [--rule NAME]... [--baseline FILE] [--no-baseline]
//                    [--fix-baseline] [--expect-violations] [--list-rules]
//
// Baseline: findings listed in the baseline file (default
// tools/analyze_baseline.txt under the root) are suppressed —
// grandfathered, not endorsed. Stale entries (matching nothing) fail
// the run so the baseline only ever shrinks; `--fix-baseline`
// regenerates it deterministically from the current findings.
//
// Exit: 0 clean (or, under --expect-violations, at least one finding)
//       1 findings / stale baseline entries (or, under
//         --expect-violations, none)
//       2 usage or I/O error
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/engine.hpp"
#include "analyze/report.hpp"

namespace fs = std::filesystem;
using namespace ppf::analyze;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: ppf_analyze [--root DIR] [--json] [--sarif FILE]\n"
        "                   [--rule NAME]... [--baseline FILE]\n"
        "                   [--no-baseline] [--fix-baseline]\n"
        "                   [--expect-violations] [--list-rules]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path baseline_path;  // default resolved against root below
  fs::path sarif_path;
  bool json = false;
  bool sarif = false;
  bool no_baseline = false;
  bool fix_baseline = false;
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
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--no-baseline") {
      no_baseline = true;
    } else if (arg == "--fix-baseline") {
      fix_baseline = true;
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
  if (baseline_path.empty()) {
    baseline_path = root / "tools" / "analyze_baseline.txt";
  }

  const std::vector<Diagnostic> diags = analyze_tree(root, only);

  if (fix_baseline) {
    std::ofstream out(baseline_path);
    if (!out) {
      std::cerr << "ppf_analyze: cannot write " << baseline_path.string()
                << "\n";
      return 2;
    }
    out << render_baseline(diags);
    std::cout << "ppf_analyze: baseline rewritten (" << diags.size()
              << " finding(s)) at " << baseline_path.string() << "\n";
    return 0;
  }

  std::vector<Diagnostic> fresh;
  std::vector<Diagnostic> suppressed;
  std::vector<BaselineEntry> stale;
  if (no_baseline) {
    fresh = diags;
  } else {
    const Baseline b = load_baseline(baseline_path);
    stale = apply_baseline(b, diags, fresh, suppressed);
  }

  if (sarif) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "ppf_analyze: cannot write " << sarif_path.string()
                << "\n";
      return 2;
    }
    print_sarif(out, fresh);
  }
  if (json) {
    print_json(std::cout, fresh);
  } else if (!sarif) {
    print_human(std::cout, fresh);
  }

  if (expect_violations) {
    if (fresh.empty()) {
      std::cerr << "ppf_analyze: expected violations, found none\n";
      return 1;
    }
    return 0;
  }
  int code = 0;
  if (!fresh.empty()) {
    std::cerr << "ppf_analyze: " << fresh.size() << " finding(s)";
    if (!suppressed.empty()) {
      std::cerr << " (+" << suppressed.size() << " baselined)";
    }
    std::cerr << "\n";
    code = 1;
  }
  if (!stale.empty()) {
    std::cerr << "ppf_analyze: " << stale.size()
              << " stale baseline entr(y/ies) — fixed findings must "
                 "leave the baseline; run --fix-baseline:\n";
    for (const BaselineEntry& e : stale) {
      std::cerr << "  " << e.rule << "|" << e.file << "|" << e.message
                << "\n";
    }
    code = 1;
  }
  return code;
}
