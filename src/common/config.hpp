// Tiny key=value parameter parser used by examples and bench binaries to
// override simulation knobs from the command line without a heavyweight
// flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ppf {

/// The value grammars of ParamMap's typed getters, for callers that
/// report their own errors: std::nullopt when `text` does not parse.
/// Integers are unsigned (decimal, 0x hex or 0 octal; a '-' is rejected
/// rather than wrapped); bools are 1|true|yes|on or 0|false|no|off.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);
[[nodiscard]] std::optional<double> parse_double(const std::string& text);
[[nodiscard]] std::optional<bool> parse_bool(const std::string& text);

/// The items of a `sep`-separated list, empty ones dropped:
/// split_list(",a,,b,") is {"a", "b"}.
[[nodiscard]] std::vector<std::string> split_list(std::string_view text,
                                                  char sep = ',');

/// Parses "key=value" tokens (argv style) into a typed lookup map.
///
/// Unknown keys are kept and can be enumerated; values are parsed lazily
/// by the typed getters, which throw std::invalid_argument on malformed
/// input so mistyped CLI overrides fail loudly.
class ParamMap {
 public:
  ParamMap() = default;

  /// Parse argv[1..argc); each token must look like key=value, and no
  /// key may appear twice.
  static ParamMap from_args(int argc, const char* const* argv);
  /// The same rule over one whitespace-separated config string
  /// ("bench=mcf filter=pc"), as a serve request carries it.
  static ParamMap from_string(std::string_view config);

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
  /// Add one key=value token; throws on a malformed token or a key
  /// already present.
  void add_token(std::string_view tok);

  std::map<std::string, std::string> entries_;
};

}  // namespace ppf
