// Tiny key=value parameter parser used by examples and bench binaries to
// override simulation knobs from the command line without a heavyweight
// flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ppf {

/// The value grammars of ParamMap's typed getters, for callers that
/// report their own errors: std::nullopt when `text` does not parse.
/// Integers are unsigned (decimal, 0x hex or 0 octal; a '-' is rejected
/// rather than wrapped); bools are 1|true|yes|on or 0|false|no|off.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);
[[nodiscard]] std::optional<double> parse_double(const std::string& text);
[[nodiscard]] std::optional<bool> parse_bool(const std::string& text);

/// Parses "key=value" tokens (argv style) into a typed lookup map.
///
/// Unknown keys are kept and can be enumerated; values are parsed lazily
/// by the typed getters, which throw std::invalid_argument on malformed
/// input so mistyped CLI overrides fail loudly.
class ParamMap {
 public:
  ParamMap() = default;

  /// Parse argv[1..argc); each token must look like key=value.
  static ParamMap from_args(int argc, const char* const* argv);

  /// Insert/overwrite one entry.
  void set(std::string key, std::string value);

  [[nodiscard]] bool has(std::string_view key) const;

  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace ppf
