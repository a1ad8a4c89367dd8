#include "sim/config_apply.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "registry/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::sim {
namespace {

ParamMap params(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ParamMap::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ConfigApply, BasicNumericOverrides) {
  SimConfig cfg;
  apply_overrides(cfg, params({"instructions=12345", "warmup=111",
                               "seed=9", "rob=64", "width=4"}));
  EXPECT_EQ(cfg.max_instructions, 12345u);
  EXPECT_EQ(cfg.warmup_instructions, 111u);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.core.seed, 9u);  // core inherits the master seed
  EXPECT_EQ(cfg.core.rob_entries, 64u);
  EXPECT_EQ(cfg.core.width, 4u);
}

TEST(ConfigApply, FilterSelection) {
  SimConfig cfg;
  apply_overrides(cfg, params({"filter=pc"}));
  EXPECT_EQ(cfg.filter, "pc");
  apply_overrides(cfg, params({"filter=deadblock"}));
  EXPECT_EQ(cfg.filter, "deadblock");
  EXPECT_THROW(apply_overrides(cfg, params({"filter=bogus"})),
               std::invalid_argument);
}

TEST(ConfigApply, PaperPairingsViaSizeAndPorts) {
  SimConfig cfg;
  apply_overrides(cfg, params({"l1d_kb=32"}));
  EXPECT_EQ(cfg.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l1d.latency, 4u);
  apply_overrides(cfg, params({"l1d_kb=8", "l1d_ports=5"}));
  EXPECT_EQ(cfg.l1d.ports, 5u);
  EXPECT_EQ(cfg.l1d.latency, 3u);
}

TEST(ConfigApply, HistoryTableKnobs) {
  SimConfig cfg;
  apply_overrides(cfg, params({"history_entries=8192", "history_bits=3",
                               "history_init=4", "history_hash=fold-xor",
                               "source_separated=0",
                               "recovery_entries=0"}));
  EXPECT_EQ(cfg.history.entries, 8192u);
  EXPECT_EQ(cfg.history.counter_bits, 3u);
  EXPECT_EQ(cfg.history.init_value, 4u);
  EXPECT_EQ(cfg.history.hash, HashKind::FoldXor);
  EXPECT_FALSE(cfg.history.source_separated);
  EXPECT_EQ(cfg.filter_recovery_entries, 0u);
}

TEST(ConfigApply, PrefetcherListSelectsEngines) {
  SimConfig cfg;
  apply_overrides(cfg, params({"prefetchers=stride,markov", "swpf=no",
                               "nsp_degree=3"}));
  EXPECT_EQ(cfg.prefetchers, (std::vector<std::string>{"stride", "markov"}));
  EXPECT_FALSE(cfg.prefetcher_enabled("nsp"));
  EXPECT_TRUE(cfg.prefetcher_enabled("stride"));
  EXPECT_FALSE(cfg.enable_sw_prefetch);
  EXPECT_EQ(cfg.nsp_degree, 3u);
}

TEST(ConfigApply, RemovedKeysAreRejectedAsUnknown) {
  // prefetchers= is the one way to pick prefetchers and the occupancy
  // model has one engine, so these keys are typos like any other.
  for (const char* key :
       {"nsp", "sdp", "stride", "stream_buffer", "markov", "engine"}) {
    SimConfig cfg;
    ParamMap p;
    p.set(key, "1");
    try {
      apply_overrides(cfg, p);
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown configuration key: ") + key);
    }
  }
}

TEST(ConfigApply, CoreShapesTheTimingModelsCannotRunThrow) {
  // These would trip the core constructors' PPF_CHECKs and abort the
  // process: one serve request could kill the daemon.
  const std::vector<std::pair<ParamMap, std::string>> bad = {
      {params({"rob=4"}), "rob must be >= width (rob=4, width=8)"},
      {params({"width=0"}), "width=0: expected an integer in [1, 1024]"},
      {params({"lsq=0"}), "lsq=0: expected an integer in [1, 1048576]"},
      {params({"width=4", "rob=2"}), "rob must be >= width (rob=2, width=4)"},
  };
  for (const auto& [p, message] : bad) {
    SimConfig cfg;
    try {
      apply_overrides(cfg, p);
      ADD_FAILURE() << message << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
  SimConfig cfg;
  EXPECT_NO_THROW(apply_overrides(cfg, params({"width=4", "rob=4", "lsq=1"})));
}

TEST(ConfigApply, UnknownPrefetcherAndFilterNameValidated) {
  SimConfig cfg;
  EXPECT_THROW(apply_overrides(cfg, params({"prefetchers=nsp,warp"})),
               std::invalid_argument);
  EXPECT_THROW(apply_overrides(cfg, params({"filter=psychic"})),
               std::invalid_argument);
  EXPECT_THROW(apply_overrides(cfg, params({"replacement=mru"})),
               std::invalid_argument);
}

TEST(ConfigApply, ReplacementAppliesToAllLevels) {
  SimConfig cfg;
  apply_overrides(cfg, params({"replacement=srrip"}));
  EXPECT_EQ(cfg.l1d.replacement, mem::ReplacementKind::Srrip);
  EXPECT_EQ(cfg.l1i.replacement, mem::ReplacementKind::Srrip);
  EXPECT_EQ(cfg.l2.replacement, mem::ReplacementKind::Srrip);
}

TEST(ConfigApply, UnknownKeyFailsLoudly) {
  SimConfig cfg;
  EXPECT_THROW(apply_overrides(cfg, params({"instrunctions=5"})),
               std::invalid_argument);
}

TEST(ConfigApply, LineBytesPropagatesEverywhere) {
  SimConfig cfg;
  apply_overrides(cfg, params({"line_bytes=64"}));
  EXPECT_EQ(cfg.l1d.line_bytes, 64u);
  EXPECT_EQ(cfg.l1i.line_bytes, 64u);
  EXPECT_EQ(cfg.l2.line_bytes, 64u);
  EXPECT_EQ(cfg.core.ifetch_line_bytes, 64u);
}

/// A driver's key table with the observation keys, shaped like ppf_sim's
/// and ppf_batch's. The drivers' own tables are held to these keys by
/// cli.obs_sinks_reach_both_drivers and cli.ppf_sim_rejects_batch_keys.
const std::vector<DriverKey> kObsDriver = {
    {"bench", "", kText},
    {"obs", "", kBool},
    {"sample_interval", "", kCount},
    {"trace_out", "", kText},
    {"timeseries_out", "", kText},
};

TEST(ConfigApply, DriverKeyListsCarryTheObservabilityKnobs) {
  // A driver that lists the observation keys takes them through its
  // typo rejection, and one reader turns them into the recorder setup.
  SimConfig cfg;
  const CommandLine cli(kObsDriver, &cfg);
  const ParamMap args =
      cli.read({"bench=mcf", "filter=pc", "trace_out=t.json",
                "sample_interval=1000", "obs=1", "timeseries_out=ts.json"});
  const ObservationSinks sinks = ObservationSinks::read(args, cfg);
  EXPECT_EQ(sinks.trace_out, "t.json");
  EXPECT_EQ(sinks.timeseries_out, "ts.json");
  EXPECT_TRUE(cfg.obs.enabled);
  EXPECT_EQ(cfg.obs.sample_interval, 1000u);
  EXPECT_EQ(cfg.filter, "pc");  // the machine key reached the machine

  // A sink alone implies obs=1, and a time-series sink a 50000-cycle grid.
  SimConfig implied;
  (void)ObservationSinks::read(
      CommandLine(kObsDriver).read({"timeseries_out=ts.json"}), implied);
  EXPECT_TRUE(implied.obs.enabled);
  EXPECT_EQ(implied.obs.sample_interval, 50'000u);
}

TEST(ConfigApply, FirstUnknownKeyAcceptsObsKnobsRejectsTypos) {
  SimConfig cfg;
  const CommandLine cli(kObsDriver, &cfg);
  // The accepted path: obs keys + machine keys pass through untouched.
  EXPECT_NO_THROW((void)cli.read({"bench=mcf", "filter=pc",
                                  "trace_out=t.json",
                                  "sample_interval=1000", "obs=1"}));
  // A one-character typo must be named, not silently ignored.
  for (const char* typo : {"trace_ou=t.json", "timeserie_out=x.json"}) {
    try {
      (void)cli.read({typo});
      ADD_FAILURE() << typo << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string_view arg = typo;
      EXPECT_EQ(std::string(e.what()),
                "unknown key: " + std::string(arg.substr(0, arg.find('='))));
    }
  }
  // Without a machine, machine keys are unknown too.
  EXPECT_THROW((void)CommandLine(kObsDriver).read({"filter=pc"}),
               std::invalid_argument);
}

/// The message read() throws for `args`, or "" when they parse.
std::string read_error(const CommandLine& cli,
                       const std::vector<std::string>& args) {
  try {
    (void)cli.read(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CommandLine, DashedSpellingsReadAsKeys) {
  SimConfig cfg;
  const CommandLine cli(kObsDriver, &cfg);
  const ParamMap args = cli.read(
      {"--trace-out=t.json", "--obs", "--sample-interval=7", "--nsp-degree=4"});
  EXPECT_EQ(args.get_string("trace_out", ""), "t.json");
  EXPECT_EQ(args.get_string("obs", ""), "1");
  EXPECT_EQ(args.get_string("sample_interval", ""), "7");
  EXPECT_EQ(cfg.nsp_degree, 4u);
  // One key, two spellings: still a duplicate.
  EXPECT_NE(read_error(cli, {"obs=1", "--obs"}).find("duplicate key 'obs'"),
            std::string::npos);
  // A single dash is no spelling of a key, and a bare -- names no key:
  // the message quotes the argument as typed.
  EXPECT_EQ(read_error(cli, {"-obs"}), "expected key=value, got '-obs'");
  EXPECT_EQ(read_error(cli, {"--"}), "expected key=value, got '--'");
  EXPECT_EQ(read_error(cli, {"--=x"}), "unknown key: --");
}

TEST(CommandLine, ValuesAreCheckedAgainstTheirDomains) {
  const std::vector<DriverKey> keys = {
      {"jobs", "", ints(0, 1024)},
      {"csv", "", kBool},
      {"bench", "", benchmarks(kU64, [] {
         return std::vector<std::string>{"all"};
       })},
      {"one", "", benchmarks(1)},
      {"filter", "", kText},  // shadows the machine key
  };
  SimConfig cfg;
  const CommandLine cli(keys, &cfg);
  EXPECT_EQ(read_error(cli, {"jobs=1025"}),
            "jobs=1025: expected an integer in [0, 1024]");
  EXPECT_EQ(read_error(cli, {"csv=maybe"}),
            "csv=maybe: expected a bool (1|0|true|false|yes|no|on|off)");
  EXPECT_EQ(read_error(cli, {"bench=mcf,nope"}), "unknown benchmark: nope");
  EXPECT_EQ(read_error(cli, {"bench=em3d+gzip"}),
            "mix 'em3d+gzip': no /SLICE after its programs");
  EXPECT_NE(read_error(cli, {"bench="}).find("bench=: expected all, or a "
                                             "comma list of "),
            std::string::npos);
  EXPECT_NE(read_error(cli, {"one=mcf,gzip"}).find("one=mcf,gzip: expected "),
            std::string::npos);
  EXPECT_EQ(read_error(cli, {"nsp_degree=0"}),
            "nsp_degree=0: expected an integer in [1, 64]");
  EXPECT_EQ(read_error(cli, {"jobs=1024", "csv=yes", "bench=all",
                             "one=em3d+gzip/2000", "filter=psychic,pc"}),
            "");
  EXPECT_EQ(cfg.filter, SimConfig{}.filter);  // the driver's filter= list
  // help is every driver's and takes any value.
  EXPECT_TRUE(cli.read({"help=please"}).has("help"));
}

TEST(CommandLine, UsageListsTheTableThenTheUnshadowedMachineKeys) {
  SimConfig cfg;
  std::ostringstream os;
  CommandLine({{"filter", "comma list of filters", kText},
               {"jobs", "worker threads", ints(0, 1024)}},
              &cfg)
      .print_usage(os);
  const std::string usage = os.str();
  EXPECT_NE(usage.find("\n  filter — comma list of filters\n"),
            std::string::npos);
  EXPECT_NE(usage.find("\n  jobs — worker threads; an integer in [0, 1024]"),
            std::string::npos);
  EXPECT_NE(usage.find("\n  nsp_degree — "), std::string::npos);
  EXPECT_EQ(usage.find("\n  filter — pollution filter"), std::string::npos);
}

TEST(ConfigApply, PrintConfigMentionsKeyFacts) {
  SimConfig cfg;
  cfg.filter = "pa";
  cfg.core.dep_on_load_prob = 0.1;
  std::ostringstream os;
  print_config(os, cfg);
  const std::string out = os.str();
  EXPECT_NE(out.find("l1d_kb=8 "), std::string::npos);
  EXPECT_NE(out.find("filter=pa "), std::string::npos);
  EXPECT_NE(out.find("l2_kb=512 "), std::string::npos);
  EXPECT_NE(out.find("perceptron_theta=12 "), std::string::npos);
  EXPECT_NE(out.find("dep_prob=0.1\n"), std::string::npos);

  // The echo names every override key and pastes back into ppf_sim: the
  // same tokens, with the shell continuations dropped, rebuild the config.
  std::istringstream tokens(out);
  ParamMap echoed;
  for (std::string tok; tokens >> tok;) {
    if (tok == "\\") continue;
    const std::size_t eq = tok.find('=');
    ASSERT_NE(eq, std::string::npos) << tok;
    echoed.set(tok.substr(0, eq), tok.substr(eq + 1));
  }
  std::size_t keys = 0;
  for (const ConfigRow& row : config_schema()) keys += row.key ? 1 : 0;
  EXPECT_EQ(echoed.entries().size(), keys);
  SimConfig back;
  apply_overrides(back, echoed);
  EXPECT_EQ(warmup_key(back), warmup_key(cfg));
  EXPECT_EQ(back.max_instructions, cfg.max_instructions);
}

// --- the config schema, property by property ----------------------------

/// Values of `row`'s domain worth trying: both bounds, every name.
std::vector<std::string> candidates(const ConfigRow& row) {
  const Domain& d = row.domain;
  switch (d.kind) {
    case Domain::Kind::Int:
    case Domain::Kind::Pow2:
      return {std::to_string(d.lo), std::to_string(d.hi)};
    case Domain::Kind::Real: {
      std::ostringstream lo, hi;
      lo.precision(17);
      hi.precision(17);
      lo << d.real_lo;
      hi << d.real_hi;
      return {lo.str(), hi.str()};
    }
    case Domain::Kind::Bool:
      return {"0", "1"};
    case Domain::Kind::Name:
      return d.names();
    case Domain::Kind::Prefetchers:
      return registry::prefetcher_keys();
    case Domain::Kind::Replacement:
      return registry::replacement_keys();
    case Domain::Kind::Text:
    case Domain::Kind::Benchmarks:
      break;  // driver keys only: no schema row takes them
  }
  return {};
}

std::string value_of(const ConfigRow& row, const SimConfig& cfg) {
  std::string out;
  row.access.get(cfg, out);
  return out;
}

TEST(ConfigSchema, DefaultsAndSamplesLieInTheirDomains) {
  const SimConfig def = SimConfig::paper_default();
  for (const ConfigRow& row : config_schema()) {
    EXPECT_NO_THROW((void)row.domain.parse(row.name, value_of(row, def)))
        << row.name << " default " << value_of(row, def);
    for (const std::string_view sample : row.samples) {
      EXPECT_NO_THROW((void)row.domain.parse(row.name, std::string(sample)))
          << row.name << "=" << sample;
    }
    EXPECT_TRUE(row.key || row.samples.empty()) << row.name;
  }
}

TEST(ConfigSchema, IntegerBoundsRunOrThrowAndNeighboursThrow) {
  // Two bases that between them build every component: each integer
  // key's bounds must either run or be a typed error, never an abort.
  using Overrides = std::vector<std::pair<std::string, std::string>>;
  const std::vector<Overrides> bases = {
      {{"filter", "pa"},
       {"prefetchers", "nsp,sdp,stride,markov,pmp"},
       {"victim_entries", "8"}},
      {{"filter", "perceptron"},
       {"core_model", "dataflow"},
       {"prefetch_buffer", "1"},
       {"prefetchers", "stream_buffer"}},
  };
  const auto apply = [](const Overrides& base, const std::string& key,
                        const std::string& value) {
    ParamMap p;
    for (const auto& [k, v] : base) p.set(k, v);
    p.set(key, value);
    SimConfig cfg;
    apply_overrides(cfg, p);
    return cfg;
  };
  for (const ConfigRow& row : config_schema()) {
    const Domain& d = row.domain;
    if (!row.key ||
        (d.kind != Domain::Kind::Int && d.kind != Domain::Kind::Pow2)) {
      continue;
    }
    std::vector<std::uint64_t> outside;
    if (d.lo > 0) outside.push_back(d.lo - 1);
    if (d.hi < UINT64_MAX) outside.push_back(d.hi + 1);
    if (d.kind == Domain::Kind::Pow2) {
      for (const std::uint64_t v : {d.lo + 1, d.hi - 1}) {
        if (v >= d.lo && v <= d.hi && (v & (v - 1)) != 0) outside.push_back(v);
      }
    }
    for (const auto& base : bases) {
      for (const std::uint64_t v : {d.lo, d.hi}) {
        SimConfig cfg;
        try {
          cfg = apply(base, std::string(row.name), std::to_string(v));
        } catch (const std::invalid_argument&) {
          continue;  // a typed error (rob below width) is fine
        }
        cfg.max_instructions = 300;
        const auto trace = workload::make_benchmark("mcf", cfg.seed);
        EXPECT_NO_THROW((void)Simulator(cfg).run(*trace))
            << row.name << "=" << v;
      }
      for (const std::uint64_t v : outside) {
        EXPECT_THROW(
            (void)apply(base, std::string(row.name), std::to_string(v)),
            std::invalid_argument)
            << row.name << "=" << v;
      }
    }
  }
}

TEST(ConfigSchema, WarmRowsAndOnlyThoseChangeTheWarmupKey) {
  // The measurement window, the checker and the fault hook are all that
  // warmed snapshots may share; every other key (views included, through
  // the fields they set) and every row with no key must fork the key.
  const std::set<std::string_view> window_only = {
      "instructions", "check", "check_period", "check_fail_at",
      "diff_fail_at"};
  const SimConfig base = SimConfig::paper_default();
  for (const ConfigRow& row : config_schema()) {
    bool changed = false;
    for (const std::string& text : candidates(row)) {
      SimConfig cfg = base;
      row.access.set(cfg, row.domain.parse(row.name, text));
      if (value_of(row, cfg) == value_of(row, base)) continue;
      changed = true;
      EXPECT_EQ(warmup_key(cfg) != warmup_key(base),
                window_only.count(row.name) == 0)
          << row.name << "=" << text;
    }
    EXPECT_TRUE(changed) << row.name << ": no candidate value differs";
  }
}

}  // namespace
}  // namespace ppf::sim
