// ppf::analyze — diagnostic printers.
//
// The three ppf_analyze output modes:
//
//   print_human   file:line:col: [rule] message   (+ "  fix: hint")
//   print_json    array of {rule,file,line,col,message,hint}
//   print_sarif   SARIF 2.1.0 (one run, rules catalogued, results with
//                 physical locations) — GitHub code scanning ingests it
#pragma once

#include <iosfwd>
#include <vector>

#include "analyze/diagnostics.hpp"

namespace ppf::analyze {

void print_human(std::ostream& os, const std::vector<Diagnostic>& diags);
void print_json(std::ostream& os, const std::vector<Diagnostic>& diags);
void print_sarif(std::ostream& os, const std::vector<Diagnostic>& diags);

/// JSON string escaping (exposed for the CLIs' own output).
std::string json_escape(const std::string& s);

}  // namespace ppf::analyze
