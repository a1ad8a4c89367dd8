// The config schema: one table row per configuration field.
//
// A row holds the field's override key (or, for a field no key sets on
// its own, its SimConfig member path), help text, the domain of values
// it accepts, the ppf_diff lattice's sample values, whether the field
// shapes warm state, and a setter/getter pair. Parsing and range checks,
// --help, print_config, sim::warmup_key, the diff lattice and the key
// list of the config-key-docs analyzer rule all read the table, so a new
// knob is one row:
//   ./bench_fig6 l1d_kb=32 filter=pc history_entries=8192
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "sim/sim_config.hpp"

namespace ppf::sim {

/// A parsed value: `u` for integers, bools, names (their index) and
/// enums, `d` for reals, `text` for names, `list` for prefetcher lists.
struct ConfigValue {
  std::uint64_t u = 0;
  double d = 0.0;
  std::string text;
  std::vector<std::string> list;
};

/// The values a row accepts. No bound exceeds the field's type, and any
/// value in an override key's domain builds a machine; the one rule
/// across fields, rob >= width, is apply_overrides' to check. The
/// component constructors keep their PPF_CHECKs as a second defence.
struct Domain {
  enum class Kind : std::uint8_t {
    Int,       ///< an integer in [lo, hi]
    Pow2,      ///< a power of two in [lo, hi]
    Real,      ///< a real in [real_lo, real_hi]
    Bool,      ///< 1|true|yes|on or 0|false|no|off
    Name,      ///< one of names() (an enum's in enumerator order)
    // The policy registry parses these and names the valid keys.
    Prefetchers,  ///< a comma list of prefetcher keys
    Replacement,  ///< a replacement-policy key
  };
  Kind kind = Kind::Int;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  double real_lo = 0.0;
  double real_hi = 0.0;
  std::vector<std::string> (*names)() = nullptr;

  /// e.g. "an integer in [1, 64]".
  [[nodiscard]] std::string describe() const;
  /// Throws std::invalid_argument naming the key, the value and the
  /// domain (the registry's own message for its two kinds).
  [[nodiscard]] ConfigValue parse(std::string_view key,
                                  const std::string& text) const;
};

struct FieldAccess {
  void (*set)(SimConfig& cfg, const ConfigValue& value) = nullptr;
  /// Appends the value as text that parses back to it.
  void (*get)(const SimConfig& cfg, std::string& out) = nullptr;
};

struct ConfigRow {
  std::string_view name;  ///< override key, or member path if !key
  std::string_view help;
  Domain domain;
  std::vector<std::string_view> samples;  ///< diff lattice values
  /// Part of warmup_key. A key that only sets other rows' fields
  /// (l1d_kb) is not warm itself.
  bool warm = false;
  FieldAccess access;
  bool key = true;
};

/// Every row, in table order: the order keys apply in and the order of
/// warmup_key, --help and the diff lattice. A field that shapes warm
/// state but has no row is invisible to warmup_key, and no test can
/// notice: give every new field a row.
const std::vector<ConfigRow>& config_schema();

/// Parse every key of `params` but `driver_keys` against its domain,
/// apply them in table order, then check rob >= width. Throws
/// std::invalid_argument on an unknown key or a bad value.
void apply_overrides(SimConfig& cfg, const ParamMap& params,
                     const std::vector<std::string>& driver_keys = {});

/// First key in `params` that is neither an override key nor one of the
/// driver-specific `extra` keys; "" when every key is known. CLIs use
/// this to reject typos up front (named key, exit 2) instead of letting
/// them slip through or fail mid-run.
std::string first_unknown_key(const ParamMap& params,
                              const std::vector<std::string>& extra);

/// Driver-only keys accepted by the ppf_sim CLI on top of the machine
/// override keys. Exposed (rather than inlined in the tool) so the
/// unknown-key rejection contract is unit-testable.
const std::vector<std::string>& ppf_sim_driver_keys();

/// Driver-only keys accepted by the ppf_batch CLI.
const std::vector<std::string>& ppf_batch_driver_keys();

/// "  key — help; domain" per override key (--help output).
void print_override_keys(std::ostream& os);

/// Every override key as key=value, wrapped with shell continuations,
/// so the echo pastes back into ppf_sim.
void print_config(std::ostream& os, const SimConfig& cfg);

}  // namespace ppf::sim
