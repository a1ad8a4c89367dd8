#include "analyze/report.hpp"

#include <cstdio>
#include <map>
#include <ostream>
#include <string>

#include "analyze/engine.hpp"

namespace ppf::analyze {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void print_human(std::ostream& os, const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    os << d.file << ":" << d.line << ":" << d.col << ": [" << d.rule << "] "
       << d.message << "\n";
    if (!d.hint.empty()) os << "  fix: " << d.hint << "\n";
  }
}

void print_json(std::ostream& os, const std::vector<Diagnostic>& diags) {
  os << "[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << (i == 0 ? "" : ",") << "\n  {\"rule\": \"" << json_escape(d.rule)
       << "\", \"file\": \"" << json_escape(d.file)
       << "\", \"line\": " << d.line << ", \"col\": " << d.col
       << ", \"message\": \"" << json_escape(d.message)
       << "\", \"hint\": \"" << json_escape(d.hint) << "\"}";
  }
  os << (diags.empty() ? "]" : "\n]") << "\n";
}

void print_sarif(std::ostream& os, const std::vector<Diagnostic>& diags) {
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"ppf_analyze\",\n"
     << "          \"informationUri\": \"docs/ANALYSIS.md\",\n"
     << "          \"rules\": [\n";
  const std::vector<RuleInfo>& rules = all_rules();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i].name] = i;
    os << "            {\"id\": \"" << json_escape(rules[i].name)
       << "\", \"shortDescription\": {\"text\": \""
       << json_escape(rules[i].help) << "\"}}"
       << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    std::string text = d.message;
    if (!d.hint.empty()) text += " (fix: " + d.hint + ")";
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(d.rule) << "\",\n";
    const auto it = rule_index.find(d.rule);
    if (it != rule_index.end()) {
      os << "          \"ruleIndex\": " << it->second << ",\n";
    }
    os << "          \"level\": \"error\",\n"
       << "          \"message\": {\"text\": \"" << json_escape(text)
       << "\"},\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": {\"uri\": \""
       << json_escape(d.file) << "\"},\n"
       << "                \"region\": {\"startLine\": "
       << (d.line == 0 ? 1 : d.line)
       << ", \"startColumn\": " << (d.col == 0 ? 1 : d.col) << "}\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < diags.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
}

}  // namespace ppf::analyze
