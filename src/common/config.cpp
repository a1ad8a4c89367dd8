#include "common/config.hpp"

#include <stdexcept>

namespace ppf {
namespace {

std::string bad_value(std::string_view key, const std::string& value) {
  std::string m = "malformed value for parameter '";
  m.append(key);
  m += "': '";
  m += value;
  m += "'";
  return m;
}

/// The value under `key` parsed by `parse`; `fallback` when absent.
template <typename T>
T get_parsed(const std::map<std::string, std::string>& entries,
             std::string_view key, T fallback,
             std::optional<T> (*parse)(const std::string&)) {
  const auto it = entries.find(std::string(key));
  if (it == entries.end()) return fallback;
  const std::optional<T> v = parse(it->second);
  if (!v) throw std::invalid_argument(bad_value(key, it->second));
  return *v;
}

}  // namespace

ParamMap ParamMap::from_args(int argc, const char* const* argv) {
  ParamMap p;
  for (int i = 1; i < argc; ++i) p.add_token(argv[i]);
  return p;
}

ParamMap ParamMap::from_string(std::string_view config) {
  ParamMap p;
  constexpr std::string_view kSpace = " \t\n\r\f\v";
  for (std::size_t at = config.find_first_not_of(kSpace);
       at != std::string_view::npos;) {
    const std::size_t end = config.find_first_of(kSpace, at);
    p.add_token(config.substr(at, end - at));
    at = config.find_first_not_of(kSpace, end);
  }
  return p;
}

void ParamMap::add_token(std::string_view tok) {
  const auto eq = tok.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("expected key=value, got '" +
                                std::string(tok) + "'");
  }
  std::string key(tok.substr(0, eq));
  if (has(key)) {
    // Letting the last duplicate win silently is how a typo'd sweep
    // runs the wrong config; reject like unknown keys (drivers exit 2).
    throw std::invalid_argument("duplicate key '" + key +
                                "': each key may be given at most once");
  }
  set(std::move(key), std::string(tok.substr(eq + 1)));
}

void ParamMap::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool ParamMap::has(std::string_view key) const {
  return entries_.find(std::string(key)) != entries_.end();
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  // std::stoull accepts a leading '-' and silently wraps it modulo 2^64
  // ("-1" -> 18446744073709551615), which is never what a knob override
  // means; it also parses whitespace-only values as "no digits" only
  // after skipping them. Reject both shapes up front.
  const std::size_t first = text.find_first_not_of(" \t");
  if (first == std::string::npos || text[first] == '-') return std::nullopt;
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos, 0);
    if (pos != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::uint64_t ParamMap::get_u64(std::string_view key,
                                std::uint64_t fallback) const {
  return get_parsed(entries_, key, fallback, parse_u64);
}

double ParamMap::get_double(std::string_view key, double fallback) const {
  return get_parsed(entries_, key, fallback, parse_double);
}

bool ParamMap::get_bool(std::string_view key, bool fallback) const {
  return get_parsed(entries_, key, fallback, parse_bool);
}

std::string ParamMap::get_string(std::string_view key,
                                 std::string fallback) const {
  const auto it = entries_.find(std::string(key));
  return it == entries_.end() ? fallback : it->second;
}

}  // namespace ppf
