// The config schema: one table row per configuration field, and the
// command-line front end every driver shares.
//
// A row holds the field's override key (or, for a field no key sets on
// its own, its SimConfig member path), help text, the domain of values
// it accepts, the ppf_diff lattice's sample values, whether the field
// shapes warm state, and a setter/getter pair. Parsing and range checks,
// help=1, print_config, sim::warmup_key, the diff lattice and the key
// list of the config-key-docs analyzer rule all read the table, so a new
// knob is one row, and every CLI that runs a machine takes it as
// key=value:
//   ./bench_paper fig=fig6 l1d_kb=32 filter=pc history_entries=8192
//
// A driver's own keys are a table of DriverKey rows (name, help,
// domain) that CommandLine parses, checks and prints usage from.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "sim/sim_config.hpp"

namespace ppf::sim {

struct SimResult;  // simulator.hpp

/// A parsed value: `u` for integers, bools, names (their index) and
/// enums, `d` for reals, `text` for names and text, `list` for
/// prefetcher and benchmark lists.
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
    Text,  ///< any text: a path, a config string, a list its driver checks
    /// A comma list of 1 to hi benchmark names or mixes, each checked by
    /// workload::parse_benchmark_name, which names the bad part; with
    /// names set, one of names() alone too (ppf_batch's `all`).
    Benchmarks,
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
  /// domain (the registry's or the benchmark parser's own message for
  /// their kinds).
  [[nodiscard]] ConfigValue parse(std::string_view key,
                                  const std::string& text) const;
};

constexpr Domain ints(std::uint64_t lo, std::uint64_t hi) {
  return {Domain::Kind::Int, lo, hi};
}
constexpr Domain pow2s(std::uint64_t lo, std::uint64_t hi) {
  return {Domain::Kind::Pow2, lo, hi};
}
constexpr Domain reals(double lo, double hi) {
  return {Domain::Kind::Real, 0, 0, lo, hi};
}
constexpr Domain names(std::vector<std::string> (*valid)()) {
  return {.kind = Domain::Kind::Name, .names = valid};
}
constexpr Domain benchmarks(std::uint64_t most,
                            std::vector<std::string> (*alone)() = nullptr) {
  return {.kind = Domain::Kind::Benchmarks, .hi = most, .names = alone};
}
inline constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::uint64_t k2To20 = std::uint64_t{1} << 20;
inline constexpr Domain kCount = ints(0, kU64);
inline constexpr Domain kBool{Domain::Kind::Bool};
inline constexpr Domain kText{Domain::Kind::Text};

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
/// warmup_key, help=1 and the diff lattice. A field that shapes warm
/// state but has no row is invisible to warmup_key, and no test can
/// notice: give every new field a row.
const std::vector<ConfigRow>& config_schema();

/// Parse every key of `params` but `driver_keys` against its domain,
/// apply them in table order, then check rob >= width. Throws
/// std::invalid_argument on an unknown key or a bad value.
void apply_overrides(SimConfig& cfg, const ParamMap& params,
                     const std::vector<std::string>& driver_keys = {});

/// Every override key as key=value, wrapped with shell continuations,
/// so the echo pastes back into ppf_sim.
void print_config(std::ostream& os, const SimConfig& cfg);

/// One row of a driver's key table.
struct DriverKey {
  std::string_view name;
  std::string_view help;
  Domain domain;
};

/// The command line of a key=value driver. `--key-name=value` reads as
/// key_name=value and a bare `--flag` as flag=1. A malformed argument, a
/// key given twice, a key in neither the driver's table nor (for a
/// driver that runs a machine) the machine keys, and a value outside its
/// key's domain are usage errors: the message, then the usage, go to
/// stderr, and the driver exits 2. So does `help`.
class CommandLine {
 public:
  /// `keys` is the driver's table. With `machine`, the override keys of
  /// config_schema() are taken too and applied onto *machine; a driver
  /// key shadows a machine key of the same name.
  explicit CommandLine(std::vector<DriverKey> keys,
                       SimConfig* machine = nullptr);

  /// The driver keys given, each checked against its domain, or
  /// std::nullopt after printing a usage error or help.
  std::optional<ParamMap> parse(int argc, const char* const* argv);

  /// parse() without the printing: throws std::invalid_argument on a
  /// usage error, and returns `help` with the driver keys.
  [[nodiscard]] ParamMap read(const std::vector<std::string>& args) const;

  /// Prints `error` and the usage to stderr; returns 2 for the driver to
  /// exit with.
  int usage_error(const std::string& error) const;

  /// "usage:", then "  key — help; domain" per driver key, then the
  /// machine keys it does not shadow.
  void print_usage(std::ostream& os) const;

 private:
  [[nodiscard]] const DriverKey* find(std::string_view key) const;

  std::vector<DriverKey> keys_;
  SimConfig* machine_;
  std::string program_;
};

/// The observation keys ppf_sim and ppf_batch share: obs,
/// sample_interval, trace_out and timeseries_out (docs/OBSERVABILITY.md).
struct ObservationSinks {
  std::string trace_out;       ///< lifecycle trace; .jsonl: ppf.trace.v1
  std::string timeseries_out;  ///< ppf.timeseries.v1 JSON

  /// Sets cfg.obs from the keys: a sink or a sample interval implies
  /// obs=1, and a time-series sink samples every 50000 cycles unless
  /// sample_interval says otherwise.
  static ObservationSinks read(const ParamMap& args, SimConfig& cfg);

  /// Writes r's observation, if it has one, to the sinks. With a job
  /// index each sink is a prefix: PREFIX.<index>.json (.jsonl when the
  /// prefix ends so) and PREFIX.<index>.timeseries.json. Throws
  /// std::runtime_error naming a file it cannot open.
  void write(const SimResult& r, const std::string& index = "") const;
};

}  // namespace ppf::sim
