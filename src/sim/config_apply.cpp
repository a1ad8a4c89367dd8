#include "sim/config_apply.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/bits.hpp"
#include "registry/registry.hpp"

namespace ppf::sim {

namespace {

using Kind = Domain::Kind;
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t k2To20 = std::uint64_t{1} << 20;
constexpr bool kWarm = true;

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : "|") + n;
  return out;
}

Domain ints(std::uint64_t lo, std::uint64_t hi) { return {Kind::Int, lo, hi}; }
Domain pow2s(std::uint64_t lo, std::uint64_t hi) {
  return {Kind::Pow2, lo, hi};
}
Domain reals(double lo, double hi) { return {Kind::Real, 0, 0, lo, hi}; }
Domain names(std::vector<std::string> (*valid)()) {
  return {.kind = Kind::Name, .names = valid};
}
const Domain kBool{Kind::Bool};

/// The names of enumerators 0..N-1 of E, by its to_string.
template <typename E, int N>
std::vector<std::string> enum_names() {
  std::vector<std::string> out;
  for (int i = 0; i < N; ++i) out.emplace_back(to_string(static_cast<E>(i)));
  return out;
}

const Domain kPrefetchers{Kind::Prefetchers};
const Domain kReplacement{Kind::Replacement};

/// Appends `v` as override text; std::to_chars gives doubles their
/// shortest exact round-trip form.
template <typename T>
void append(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_enum_v<T>) {
    out += to_string(v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += v;
  } else {  // the prefetcher list
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + v[i];
  }
}

template <typename T>
void assign(T& field, const ConfigValue& v) {
  if constexpr (std::is_floating_point_v<T>) {
    field = v.d;
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = v.text;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    field = v.list;
  } else {
    field = static_cast<T>(v.u);  // the domain keeps v.u within T
  }
}

/// Setter and getter of the member a captureless lambda `Ref` returns.
template <typename Ref>
FieldAccess field(Ref) {
  return {[](SimConfig& c, const ConfigValue& v) { assign(Ref{}(c), v); },
          [](const SimConfig& c, std::string& out) { append(out, Ref{}(c)); }};
}
#define PPF_FIELD(path) field([](auto& c) -> auto& { return c.path; })

/// A warm row no key sets, named by its member path; its domain is the
/// whole of the member's type.
template <typename Ref>
ConfigRow warm_field(std::string_view path, Ref ref) {
  using T = std::remove_cvref_t<decltype(ref(std::declval<SimConfig&>()))>;
  Domain d = kReplacement;  // the one enum among these fields
  if constexpr (std::is_floating_point_v<T>) {
    d = reals(0.0, std::numeric_limits<T>::max());
  } else if constexpr (std::is_integral_v<T>) {
    d = ints(0, std::numeric_limits<T>::max());
  }
  return {path, "", d, {}, kWarm, field(ref), false};
}
#define PPF_WARM(path) \
  warm_field(#path, [](auto& c) -> auto& { return c.path; })
#define PPF_WARM_CACHE(c)                                              \
  PPF_WARM(c.size_bytes), PPF_WARM(c.line_bytes),                      \
      PPF_WARM(c.associativity), PPF_WARM(c.latency), PPF_WARM(c.ports), \
      PPF_WARM(c.replacement)

// Setters and getters of the keys that set other rows' fields.
void set_seed(SimConfig& c, const ConfigValue& v) {
  c.seed = c.core.seed = v.u;
}
void set_l1d_kb(SimConfig& c, const ConfigValue& v) {
  c.set_l1d_size_kb(static_cast<unsigned>(v.u));
}
void get_l1d_kb(const SimConfig& c, std::string& s) {
  append(s, c.l1d.size_bytes / 1024);
}
void set_l1d_ports(SimConfig& c, const ConfigValue& v) {
  c.set_l1d_ports(static_cast<unsigned>(v.u));
}
void set_l2_kb(SimConfig& c, const ConfigValue& v) {
  c.l2.size_bytes = v.u * 1024;
}
void get_l2_kb(const SimConfig& c, std::string& s) {
  append(s, c.l2.size_bytes / 1024);
}
void set_line_bytes(SimConfig& c, const ConfigValue& v) {
  c.l1d.line_bytes = c.l1i.line_bytes = c.l2.line_bytes =
      c.core.ifetch_line_bytes = static_cast<std::uint32_t>(v.u);
}
void set_replacement(SimConfig& c, const ConfigValue& v) {
  c.l1d.replacement = c.l1i.replacement = c.l2.replacement =
      static_cast<mem::ReplacementKind>(v.u);
}

const ConfigRow* find_key(std::string_view key) {
  static const auto index = [] {
    std::unordered_map<std::string_view, const ConfigRow*> m;
    for (const ConfigRow& row : config_schema()) {
      if (row.key) m.emplace(row.name, &row);
    }
    return m;
  }();
  const auto it = index.find(key);
  return it == index.end() ? nullptr : it->second;
}

}  // namespace

std::string Domain::describe() const {
  const auto range = [](const auto& a, const auto& b) {
    std::string s = "[";
    append(s, a);
    s += ", ";
    append(s, b);
    return s + "]";
  };
  switch (kind) {
    case Kind::Int: return "an integer in " + range(lo, hi);
    case Kind::Pow2: return "a power of two in " + range(lo, hi);
    case Kind::Real: return "a real in " + range(real_lo, real_hi);
    case Kind::Bool: return "a bool (1|0|true|false|yes|no|on|off)";
    case Kind::Name: return "one of " + join(names());
    case Kind::Prefetchers:
      return "a comma list of " + registry::valid_prefetcher_values();
    case Kind::Replacement:
      return "one of " + registry::valid_replacement_values();
  }
  PPF_ASSERT_MSG(false, "unhandled Domain::Kind");
  return "";
}

ConfigValue Domain::parse(std::string_view key, const std::string& text) const {
  ConfigValue v;
  bool ok = false;
  switch (kind) {
    case Kind::Int:
    case Kind::Pow2: {
      const std::optional<std::uint64_t> u = parse_u64(text);
      ok = u && *u >= lo && *u <= hi && (kind == Kind::Int || is_pow2(*u));
      v.u = u.value_or(0);
      break;
    }
    case Kind::Real: {
      const std::optional<double> d = parse_double(text);
      ok = d && *d >= real_lo && *d <= real_hi;  // NaN fails both
      v.d = d.value_or(0.0);
      break;
    }
    case Kind::Bool: {
      const std::optional<bool> b = parse_bool(text);
      ok = b.has_value();
      v.u = b.value_or(false) ? 1 : 0;
      break;
    }
    case Kind::Name: {
      const std::vector<std::string> valid = names();
      const auto it = std::find(valid.begin(), valid.end(), text);
      if (it == valid.end()) {
        throw std::invalid_argument("unknown " + std::string(key) + " '" +
                                    text + "' (valid: " + join(valid) + ")");
      }
      v.u = static_cast<std::uint64_t>(it - valid.begin());
      v.text = text;
      return v;
    }
    case Kind::Prefetchers:
      v.list = registry::parse_prefetcher_list(text);
      return v;
    case Kind::Replacement:
      v.u = static_cast<std::uint64_t>(registry::parse_replacement(text));
      return v;
  }
  if (!ok) {
    throw std::invalid_argument(std::string(key) + "=" + text +
                                ": expected " + describe());
  }
  return v;
}

const std::vector<ConfigRow>& config_schema() {
  // Reordering the rows with samples changes the point every ppf_diff
  // trial draws (docs/DIFF.md).
  static const std::vector<ConfigRow> rows = {
      {"instructions", "measured instructions per run", ints(0, kU64), {},
       !kWarm, PPF_FIELD(max_instructions)},
      {"warmup", "warmup instructions before the statistics reset",
       ints(0, kU64), {}, kWarm, PPF_FIELD(warmup_instructions)},
      {"seed", "master seed (workload + all randomized state)", ints(0, kU64),
       {}, kWarm, {set_seed, PPF_FIELD(seed).get}},
      {"filter", "pollution filter (see docs/PLUGINS.md)",
       names(registry::filter_keys),
       {"none", "pa", "pc", "static", "adaptive", "deadblock", "perceptron"},
       kWarm, PPF_FIELD(filter)},
      {"history_entries", "history table entries", pow2s(2, k2To20),
       {"256", "1024", "4096"}, kWarm, PPF_FIELD(history.entries)},
      {"history_bits", "history counter width in bits", ints(1, 8),
       {"1", "2", "3"}, kWarm, PPF_FIELD(history.counter_bits)},
      {"history_init", "history counter initial value", ints(0, 255),
       {"0", "1"}, kWarm, PPF_FIELD(history.init_value)},
      {"history_hash", "table index hash", names(enum_names<HashKind, 4>),
       {"modulo", "fold-xor", "fibonacci", "mix64"}, kWarm,
       PPF_FIELD(history.hash)},
      {"source_separated", "tag table index with the prefetch source", kBool,
       {"0", "1"}, kWarm, PPF_FIELD(history.source_separated)},
      {"recovery_entries", "rejected-prefetch recovery buffer (0 disables)",
       ints(0, k2To20), {"0", "8", "32"}, kWarm,
       PPF_FIELD(filter_recovery_entries)},
      {"perceptron_entries", "perceptron filter rows per feature table",
       pow2s(2, k2To20), {}, kWarm, PPF_FIELD(perceptron.table_entries)},
      {"perceptron_weight_bits", "perceptron weight width in bits",
       ints(2, 8), {}, kWarm, PPF_FIELD(perceptron.weight_bits)},
      {"perceptron_theta", "perceptron training threshold", ints(0, INT_MAX),
       {}, kWarm, PPF_FIELD(perceptron.theta)},
      {"l1d_kb", "L1 D-cache KB (sets the paper's latency)", pow2s(8, 32),
       {"8", "16", "32"}, !kWarm, {set_l1d_kb, get_l1d_kb}},
      {"l1d_ports", "L1 D-cache ports (sets the paper's latency)", ints(3, 5),
       {"3", "4", "5"}, !kWarm, {set_l1d_ports, PPF_FIELD(l1d.ports).get}},
      {"l2_kb", "L2 size in KB", pow2s(4, 65536), {"256", "512"}, !kWarm,
       {set_l2_kb, get_l2_kb}},
      {"line_bytes", "cache line size in bytes (all levels)", pow2s(4, 256),
       {"16", "32", "64"}, !kWarm,
       {set_line_bytes, PPF_FIELD(l1d.line_bytes).get}},
      {"mem_latency", "main memory latency in core cycles", ints(0, 4096),
       {"60", "120", "200"}, kWarm, PPF_FIELD(dram.latency)},
      {"bus_cycles_per_beat", "core cycles per 64-byte bus beat",
       ints(1, 4096), {"2", "4"}, kWarm, PPF_FIELD(bus.cycles_per_beat)},
      {"queue_entries", "prefetch queue capacity", ints(1, k2To20),
       {"8", "16", "32"}, kWarm, PPF_FIELD(prefetch_queue_entries)},
      {"mshr", "outstanding DRAM fills (0 = unlimited)", ints(0, k2To20),
       {"0", "4", "8"}, kWarm, PPF_FIELD(mshr_entries)},
      {"victim_entries", "victim cache entries (0 = none)", ints(0, k2To20),
       {"0", "8"}, kWarm, PPF_FIELD(victim_cache_entries)},
      {"prefetch_l2", "prefetch into the L2 only", kBool, {"0", "1"}, kWarm,
       PPF_FIELD(prefetch_to_l2)},
      {"prefetch_buffer", "use the dedicated 16-entry prefetch buffer", kBool,
       {"0", "1"}, kWarm, PPF_FIELD(use_prefetch_buffer)},
      {"prefetchers", "hardware prefetchers, in the order they run",
       kPrefetchers,
       {"", "nsp", "nsp,sdp", "sdp,nsp", "nsp,sdp,stride", "stride,markov",
        "nsp,sdp,pmp", "pmp", "stream_buffer,nsp"},
       kWarm, PPF_FIELD(prefetchers)},
      {"nsp_degree", "NSP lines per trigger", ints(1, 64), {"1", "2", "4"},
       kWarm, PPF_FIELD(nsp_degree)},
      {"replacement", "cache replacement policy, all levels", kReplacement,
       {"lru", "fifo", "random", "srrip", "brrip", "lip"}, !kWarm,
       {set_replacement, PPF_FIELD(l1d.replacement).get}},
      {"pmp_region_lines", "PMP region size in cache lines", pow2s(2, 64),
       {"16", "32"}, kWarm, PPF_FIELD(pmp.region_lines)},
      {"pmp_degree_cap", "PMP max prefetches per trigger (0 = whole region)",
       ints(0, UINT_MAX), {"0", "4", "8"}, kWarm, PPF_FIELD(pmp.degree_cap)},
      {"taxonomy", "track the Srinivasan prefetch taxonomy", kBool,
       {"0", "1"}, kWarm, PPF_FIELD(enable_taxonomy)},
      {"swpf", "honour software prefetch instructions", kBool, {"0", "1"},
       kWarm, PPF_FIELD(enable_sw_prefetch)},
      {"check", "invariant checking (docs/CHECKING.md)",
       names(enum_names<check::CheckMode, 3>), {}, !kWarm,
       PPF_FIELD(check.mode)},
      {"check_period", "cycles between paranoid check sweeps", ints(0, kU64),
       {}, !kWarm, PPF_FIELD(check.period)},
      {"check_fail_at", "test hook: checker.tripwire violation at cycle N",
       ints(0, kU64), {}, !kWarm, PPF_FIELD(check.fail_at)},
      {"diff_fail_at", "test hook: throw before runs of >= N instructions",
       ints(0, kU64), {}, !kWarm, PPF_FIELD(diff_fail_at)},
      {"core_model", "timing model", names(enum_names<CoreModel, 2>),
       {"occupancy", "dataflow"}, kWarm, PPF_FIELD(core_model)},
      {"width", "core dispatch/retire width", ints(1, 1024), {"2", "4"},
       kWarm, PPF_FIELD(core.width)},
      {"rob", "reorder buffer entries (>= width)", ints(1, k2To20),
       {"32", "64"}, kWarm, PPF_FIELD(core.rob_entries)},
      {"lsq", "load/store queue entries", ints(1, k2To20), {"16", "32"},
       kWarm, PPF_FIELD(core.lsq_entries)},
      {"dep_prob", "statistical load-dependence probability", reals(0, 1),
       {"0.0", "0.25", "0.5"}, kWarm, PPF_FIELD(core.dep_on_load_prob)},
      PPF_WARM(core.exec_latency),
      PPF_WARM(core.mispredict_penalty),
      PPF_WARM(core.inst_bytes),
      PPF_WARM(core.ifetch_line_bytes),
      PPF_WARM(core.seed),
      PPF_WARM(core.bimodal.entries),
      PPF_WARM(core.bimodal.counter_bits),
      PPF_WARM(core.bimodal.inst_bytes),
      PPF_WARM(core.btb.sets),
      PPF_WARM(core.btb.ways),
      PPF_WARM(core.btb.inst_bytes),
      PPF_WARM_CACHE(l1d),
      PPF_WARM_CACHE(l1i),
      PPF_WARM_CACHE(l2),
      PPF_WARM(bus.width_bytes),
      PPF_WARM(prefetch_buffer_entries),
      PPF_WARM(pmp.filter_entries),
      PPF_WARM(pmp.accum_entries),
      PPF_WARM(adaptive.accuracy_threshold),
      PPF_WARM(adaptive.release_threshold),
      PPF_WARM(adaptive.window),
      PPF_WARM(deadblock.age_multiple),
  };
  return rows;
}

void apply_overrides(SimConfig& cfg, const ParamMap& params,
                     const std::vector<std::string>& driver_keys) {
  std::vector<std::pair<const ConfigRow*, ConfigValue>> given;
  for (const auto& [key, text] : params.entries()) {
    if (std::find(driver_keys.begin(), driver_keys.end(), key) !=
        driver_keys.end()) {
      continue;
    }
    const ConfigRow* row = find_key(key);
    if (row == nullptr) {
      throw std::invalid_argument("unknown configuration key: " + key);
    }
    given.emplace_back(row, row->domain.parse(key, text));
  }
  // Table order, so l1d_ports refines the latency l1d_kb set.
  std::sort(given.begin(), given.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [row, value] : given) row->access.set(cfg, value);

  const core::CoreConfig& c = cfg.core;
  if (c.rob_entries < c.width) {
    throw std::invalid_argument(
        "rob must be >= width (rob=" + std::to_string(c.rob_entries) +
        ", width=" + std::to_string(c.width) + ")");
  }
}

std::string first_unknown_key(const ParamMap& params,
                              const std::vector<std::string>& extra) {
  for (const auto& [key, value] : params.entries()) {
    if (find_key(key) == nullptr &&
        std::find(extra.begin(), extra.end(), key) == extra.end()) {
      return key;
    }
  }
  return "";
}

const std::vector<std::string>& ppf_sim_driver_keys() {
  static const std::vector<std::string> keys = {
      "bench",           "trace",     "csv",            "config", "obs",
      "sample_interval", "trace_out", "timeseries_out", "help"};
  return keys;
}

const std::vector<std::string>& ppf_batch_driver_keys() {
  static const std::vector<std::string> keys = {
      "bench",       "filter",      "seeds",        "seed_list",
      "jobs",        "out",         "csv",          "progress",
      "timeout_ms",  "trace_cache", "warmup_share", "telemetry_json",
      "obs",         "sample_interval", "trace_out", "timeseries_out",
      "trace_cache_mb", "snapshot_cache_mb", "cancel_after",
      "help"};
  return keys;
}

void print_override_keys(std::ostream& os) {
  for (const ConfigRow& row : config_schema()) {
    if (!row.key) continue;
    os << "  " << row.name << " — " << row.help << "; "
       << row.domain.describe() << "\n";
  }
}

void print_config(std::ostream& os, const SimConfig& cfg) {
  std::size_t col = 0;
  for (const ConfigRow& row : config_schema()) {
    if (!row.key) continue;
    std::string token = std::string(row.name) + "=";
    row.access.get(cfg, token);
    if (col > 0 && col + 1 + token.size() > 76) {
      os << " \\\n  ";
      col = 2;
    } else if (col > 0) {
      os << ' ';
      ++col;
    }
    os << token;
    col += token.size();
  }
  os << "\n";
}

}  // namespace ppf::sim
