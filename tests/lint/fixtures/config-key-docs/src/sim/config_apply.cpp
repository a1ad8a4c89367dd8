#include <string>
#include <vector>

namespace ppf::sim {

struct ConfigRow {
  std::string name;
  std::string help;
};

const std::vector<ConfigRow>& config_schema() {
  static const std::vector<ConfigRow> rows = {
      {"documented_knob", "this one is in the fixture README"},
      {"mystery_knob", "this one is documented nowhere"},
  };
  return rows;
}

}  // namespace ppf::sim
