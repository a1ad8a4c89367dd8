#include "sim/config_apply.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <stdexcept>

#include "registry/registry.hpp"

namespace ppf::sim {

HashKind parse_hash_kind(const std::string& name) {
  if (name == "modulo") return HashKind::Modulo;
  if (name == "fold-xor" || name == "foldxor") return HashKind::FoldXor;
  if (name == "fibonacci") return HashKind::Fibonacci;
  if (name == "mix64") return HashKind::Mix64;
  throw std::invalid_argument("unknown hash kind: " + name);
}

check::CheckMode parse_check_mode(const std::string& name) {
  if (name == "off") return check::CheckMode::Off;
  if (name == "final") return check::CheckMode::Final;
  if (name == "paranoid") return check::CheckMode::Paranoid;
  throw std::invalid_argument("unknown check mode: " + name);
}

const std::vector<OverrideDoc>& override_docs() {
  static const std::vector<OverrideDoc> docs = {
      {"instructions", "measured instructions per run"},
      {"warmup", "warmup instructions before the statistics reset"},
      {"seed", "master seed (workload + all randomized state)"},
      {"filter", "pollution filter, by registry key (see docs/PLUGINS.md)"},
      {"history_entries", "history table entries (power of two)"},
      {"history_bits", "history counter width in bits"},
      {"history_init", "history counter initial value"},
      {"history_hash", "table index hash: modulo|fold-xor|fibonacci|mix64"},
      {"source_separated", "tag table index with the prefetch source (bool)"},
      {"recovery_entries", "rejected-prefetch recovery buffer (0 disables)"},
      {"perceptron_entries", "perceptron filter rows per feature table"},
      {"perceptron_weight_bits", "perceptron weight width in bits (2-8)"},
      {"perceptron_theta", "perceptron training threshold"},
      {"l1d_kb", "L1 D-cache size in KB (8/16/32, sets paper latency)"},
      {"l1d_ports", "L1 D-cache ports (3/4/5, sets paper latency)"},
      {"l2_kb", "L2 size in KB"},
      {"line_bytes", "cache line size in bytes (all levels)"},
      {"mem_latency", "main memory latency in core cycles"},
      {"bus_cycles_per_beat", "core cycles per 64-byte bus beat"},
      {"queue_entries", "prefetch queue capacity"},
      {"mshr", "outstanding DRAM fills (0 = unlimited)"},
      {"victim_entries", "victim cache entries (0 = none)"},
      {"prefetch_l2", "prefetch into the L2 only (bool)"},
      {"prefetch_buffer", "use the dedicated 16-entry prefetch buffer (bool)"},
      {"prefetchers", "comma list of prefetcher registry keys, in order"},
      {"replacement", "cache replacement policy, all levels (registry key)"},
      {"nsp_degree", "NSP lines per trigger"},
      {"pmp_region_lines", "PMP region size in cache lines (power of two)"},
      {"pmp_degree_cap", "PMP max prefetches per trigger (0 = whole region)"},
      {"taxonomy", "track the Srinivasan prefetch taxonomy (bool)"},
      {"swpf", "honour software prefetch instructions (bool)"},
      {"check", "invariant checking: off|final|paranoid (docs/CHECKING.md)"},
      {"check_period", "cycles between paranoid check sweeps"},
      {"check_fail_at", "test hook: inject a checker.tripwire violation at cycle N"},
      {"diff_fail_at", "test hook: throw before simulating runs of >= N instructions"},
      {"core_model", "timing model: occupancy|dataflow"},
      {"width", "core dispatch/retire width"},
      {"rob", "reorder buffer entries"},
      {"lsq", "load/store queue entries"},
      {"dep_prob", "statistical load-dependence probability"},
  };
  return docs;
}

std::string first_unknown_key(const ParamMap& params,
                              const std::vector<std::string>& extra) {
  static const std::set<std::string> known = [] {
    std::set<std::string> k;
    for (const OverrideDoc& d : override_docs()) k.insert(d.key);
    return k;
  }();
  for (const auto& [key, value] : params.entries()) {
    if (known.find(key) != known.end()) continue;
    if (std::find(extra.begin(), extra.end(), key) != extra.end()) continue;
    return key;
  }
  return "";
}

const std::vector<std::string>& ppf_sim_driver_keys() {
  static const std::vector<std::string> keys = {
      "bench",        "trace",     "csv",
      "config",       "trace_cache", "warmup_share",
      "obs",          "sample_interval", "trace_out",
      "timeseries_out", "help"};
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

void apply_overrides(SimConfig& cfg, const ParamMap& params) {
  static const std::set<std::string> known = [] {
    std::set<std::string> k;
    for (const OverrideDoc& d : override_docs()) k.insert(d.key);
    return k;
  }();
  for (const auto& [key, value] : params.entries()) {
    if (known.find(key) == known.end()) {
      throw std::invalid_argument("unknown configuration key: " + key);
    }
  }

  cfg.max_instructions = params.get_u64("instructions", cfg.max_instructions);
  cfg.warmup_instructions = params.get_u64("warmup", cfg.warmup_instructions);
  cfg.seed = params.get_u64("seed", cfg.seed);
  cfg.core.seed = cfg.seed;

  if (params.has("filter")) {
    const std::string f = params.get_string("filter", "");
    if (!registry::has_filter(f)) {
      throw std::invalid_argument("unknown filter '" + f + "' (valid: " +
                                  registry::valid_filter_values() + ")");
    }
    cfg.filter = f;
  }
  cfg.history.entries =
      params.get_u64("history_entries", cfg.history.entries);
  cfg.history.counter_bits = static_cast<unsigned>(
      params.get_u64("history_bits", cfg.history.counter_bits));
  cfg.history.init_value = static_cast<std::uint8_t>(
      params.get_u64("history_init", cfg.history.init_value));
  if (params.has("history_hash")) {
    cfg.history.hash = parse_hash_kind(params.get_string("history_hash", ""));
  }
  cfg.history.source_separated =
      params.get_bool("source_separated", cfg.history.source_separated);
  cfg.filter_recovery_entries =
      params.get_u64("recovery_entries", cfg.filter_recovery_entries);
  cfg.perceptron.table_entries =
      params.get_u64("perceptron_entries", cfg.perceptron.table_entries);
  cfg.perceptron.weight_bits = static_cast<unsigned>(
      params.get_u64("perceptron_weight_bits", cfg.perceptron.weight_bits));
  cfg.perceptron.theta = static_cast<int>(
      params.get_u64("perceptron_theta",
                     static_cast<std::uint64_t>(cfg.perceptron.theta)));

  if (params.has("l1d_kb")) {
    cfg.set_l1d_size_kb(
        static_cast<unsigned>(params.get_u64("l1d_kb", 8)));
  }
  if (params.has("l1d_ports")) {
    cfg.set_l1d_ports(
        static_cast<unsigned>(params.get_u64("l1d_ports", 3)));
  }
  if (params.has("l2_kb")) {
    cfg.l2.size_bytes = params.get_u64("l2_kb", 512) * 1024;
  }
  if (params.has("line_bytes")) {
    const std::uint32_t lb =
        static_cast<std::uint32_t>(params.get_u64("line_bytes", 32));
    cfg.l1d.line_bytes = lb;
    cfg.l1i.line_bytes = lb;
    cfg.l2.line_bytes = lb;
    cfg.core.ifetch_line_bytes = lb;
  }
  cfg.dram.latency = params.get_u64("mem_latency", cfg.dram.latency);
  cfg.bus.cycles_per_beat = static_cast<std::uint32_t>(
      params.get_u64("bus_cycles_per_beat", cfg.bus.cycles_per_beat));
  cfg.prefetch_queue_entries =
      params.get_u64("queue_entries", cfg.prefetch_queue_entries);
  cfg.mshr_entries = params.get_u64("mshr", cfg.mshr_entries);
  cfg.victim_cache_entries =
      params.get_u64("victim_entries", cfg.victim_cache_entries);
  cfg.prefetch_to_l2 = params.get_bool("prefetch_l2", cfg.prefetch_to_l2);
  cfg.use_prefetch_buffer =
      params.get_bool("prefetch_buffer", cfg.use_prefetch_buffer);

  if (params.has("prefetchers")) {
    cfg.prefetchers =
        registry::parse_prefetcher_list(params.get_string("prefetchers", ""));
  }
  if (params.has("replacement")) {
    const mem::ReplacementKind r =
        registry::parse_replacement(params.get_string("replacement", ""));
    cfg.l1d.replacement = r;
    cfg.l1i.replacement = r;
    cfg.l2.replacement = r;
  }
  cfg.nsp_degree =
      static_cast<unsigned>(params.get_u64("nsp_degree", cfg.nsp_degree));
  cfg.pmp.region_lines = static_cast<unsigned>(
      params.get_u64("pmp_region_lines", cfg.pmp.region_lines));
  cfg.pmp.degree_cap = static_cast<unsigned>(
      params.get_u64("pmp_degree_cap", cfg.pmp.degree_cap));
  cfg.enable_taxonomy = params.get_bool("taxonomy", cfg.enable_taxonomy);
  cfg.enable_sw_prefetch = params.get_bool("swpf", cfg.enable_sw_prefetch);

  if (params.has("check")) {
    cfg.check.mode = parse_check_mode(params.get_string("check", ""));
  }
  cfg.check.period = params.get_u64("check_period", cfg.check.period);
  cfg.check.fail_at = params.get_u64("check_fail_at", cfg.check.fail_at);
  cfg.diff_fail_at = params.get_u64("diff_fail_at", cfg.diff_fail_at);

  if (params.has("core_model")) {
    const std::string m = params.get_string("core_model", "");
    if (m == "occupancy") {
      cfg.core_model = CoreModel::Occupancy;
    } else if (m == "dataflow") {
      cfg.core_model = CoreModel::Dataflow;
    } else {
      throw std::invalid_argument("unknown core model: " + m);
    }
  }
  cfg.core.width =
      static_cast<unsigned>(params.get_u64("width", cfg.core.width));
  cfg.core.rob_entries =
      static_cast<unsigned>(params.get_u64("rob", cfg.core.rob_entries));
  cfg.core.lsq_entries =
      static_cast<unsigned>(params.get_u64("lsq", cfg.core.lsq_entries));
  cfg.core.dep_on_load_prob =
      params.get_double("dep_prob", cfg.core.dep_on_load_prob);

  // The timing models PPF_CHECK these shapes and abort; reject them here
  // so a bad override is a usage error, not a dead process.
  const core::CoreConfig& c = cfg.core;
  if (c.width < 1) {
    throw std::invalid_argument("width must be >= 1 (width=" +
                                std::to_string(c.width) + ")");
  }
  if (c.rob_entries < c.width) {
    throw std::invalid_argument(
        "rob must be >= width (rob=" + std::to_string(c.rob_entries) +
        ", width=" + std::to_string(c.width) + ")");
  }
  if (c.lsq_entries < 1) {
    throw std::invalid_argument("lsq must be >= 1 (lsq=" +
                                std::to_string(c.lsq_entries) + ")");
  }
}

void print_config(std::ostream& os, const SimConfig& cfg) {
  os << "machine: " << cfg.core.width << "-wide OoO, ROB "
     << cfg.core.rob_entries << ", LSQ " << cfg.core.lsq_entries << "\n"
     << "L1D: " << cfg.l1d.size_bytes / 1024 << "KB "
     << (cfg.l1d.associativity == 1
             ? std::string("direct-mapped")
             : std::to_string(cfg.l1d.associativity) + "-way")
     << ", " << cfg.l1d.line_bytes << "B lines, " << cfg.l1d.latency
     << "cy, " << cfg.l1d.ports << " ports\n"
     << "L2: " << cfg.l2.size_bytes / 1024 << "KB, " << cfg.l2.latency
     << "cy; memory " << cfg.dram.latency << "cy; bus "
     << cfg.bus.width_bytes << "B/" << cfg.bus.cycles_per_beat << "cy\n"
     << "prefetch: ";
  if (cfg.prefetchers.empty()) {
    os << "(none)";
  } else {
    for (std::size_t i = 0; i < cfg.prefetchers.size(); ++i) {
      if (i > 0) os << ',';
      os << cfg.prefetchers[i];
    }
  }
  os << " (nsp deg " << cfg.nsp_degree << ") sw("
     << (cfg.enable_sw_prefetch ? "on" : "off") << "), queue "
     << cfg.prefetch_queue_entries
     << (cfg.use_prefetch_buffer ? ", dedicated buffer" : "") << "\n"
     << "replacement: " << mem::to_string(cfg.l1d.replacement) << "\n"
     << "filter: " << cfg.filter << ", table "
     << cfg.history.entries << " x " << cfg.history.counter_bits
     << "b (init " << static_cast<unsigned>(cfg.history.init_value)
     << ", " << to_string(cfg.history.hash) << ", src-sep "
     << (cfg.history.source_separated ? "on" : "off") << "), recovery "
     << cfg.filter_recovery_entries << "\n"
     << "run: " << cfg.max_instructions << " instructions after "
     << cfg.warmup_instructions << " warmup, seed " << cfg.seed << "\n";
}

}  // namespace ppf::sim
