// ppf::analyze — pass orchestration.
//
// One Project::load, then every pass over the shared source model:
// include-layer DAG (docs/LAYERS.md spec), determinism taint, lock
// discipline, unified catalogs, and the convention rules. Diagnostics
// come back sorted by (file, line, col, rule).
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"

namespace ppf::analyze {

struct RuleInfo {
  const char* name;
  const char* help;
};

/// Every rule the engine can emit, in catalogue order.
const std::vector<RuleInfo>& all_rules();

/// Load `root` and run the passes. `only` restricts the result to the
/// named rules (empty = all). Sorted diagnostics.
std::vector<Diagnostic> analyze_tree(const std::filesystem::path& root,
                                     const std::set<std::string>& only = {});

}  // namespace ppf::analyze
