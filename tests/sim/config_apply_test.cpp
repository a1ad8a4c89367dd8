#include "sim/config_apply.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

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
      {params({"width=0"}), "width must be >= 1 (width=0)"},
      {params({"lsq=0"}), "lsq must be >= 1 (lsq=0)"},
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

TEST(ConfigApply, EveryDocumentedKeyIsAccepted) {
  // Property: the help list and the apply function stay in sync.
  SimConfig cfg;
  for (const OverrideDoc& d : override_docs()) {
    ParamMap p;
    // Pick a value that parses under any of the typed getters used.
    // Pick a value that parses under the getter each key uses (bool
    // keys reject plain integers above 1).
    static const std::set<std::string> bool_keys = {
        "source_separated", "prefetch_buffer", "swpf", "taxonomy",
        "prefetch_l2"};
    p.set(d.key, d.key == "filter"         ? "pa"
                 : d.key == "core_model"   ? "dataflow"
                 : d.key == "history_hash" ? "modulo"
                 : d.key == "check"        ? "paranoid"
                 : d.key == "dep_prob"     ? "0.3"
                 : d.key == "l1d_ports"    ? "4"
                 : d.key == "history_entries" ? "4096"
                 : d.key == "prefetchers"  ? "nsp,stride"
                 : d.key == "replacement"  ? "srrip"
                 : bool_keys.count(d.key)  ? "1"
                                           : "8");
    EXPECT_NO_THROW(apply_overrides(cfg, p)) << d.key;
  }
}

TEST(ConfigApply, DriverKeyListsCarryTheObservabilityKnobs) {
  // Both CLIs must accept the obs sinks through their typo rejection.
  for (const auto* keys : {&ppf_sim_driver_keys(), &ppf_batch_driver_keys()}) {
    for (const char* k : {"obs", "sample_interval", "trace_out",
                          "timeseries_out", "help"}) {
      EXPECT_NE(std::find(keys->begin(), keys->end(), k), keys->end()) << k;
    }
  }
  // And the batch-only knobs stay batch-only.
  const auto& batch = ppf_batch_driver_keys();
  EXPECT_NE(std::find(batch.begin(), batch.end(), "progress"), batch.end());
  EXPECT_NE(std::find(batch.begin(), batch.end(), "telemetry_json"),
            batch.end());
  const auto& simk = ppf_sim_driver_keys();
  EXPECT_EQ(std::find(simk.begin(), simk.end(), "progress"), simk.end());
}

TEST(ConfigApply, FirstUnknownKeyAcceptsObsKnobsRejectsTypos) {
  // The accepted path: obs keys + machine keys pass through untouched.
  EXPECT_EQ(first_unknown_key(params({"bench=mcf", "filter=pc",
                                      "trace_out=t.json",
                                      "sample_interval=1000", "obs=1"}),
                              ppf_sim_driver_keys()),
            "");
  // A one-character typo must be named, not silently ignored.
  EXPECT_EQ(first_unknown_key(params({"trace_ou=t.json"}),
                              ppf_sim_driver_keys()),
            "trace_ou");
  EXPECT_EQ(first_unknown_key(params({"timeserie_out=x.json"}),
                              ppf_batch_driver_keys()),
            "timeserie_out");
}

TEST(ConfigApply, PrintConfigMentionsKeyFacts) {
  SimConfig cfg;
  cfg.filter = "pa";
  std::ostringstream os;
  print_config(os, cfg);
  const std::string out = os.str();
  EXPECT_NE(out.find("8KB direct-mapped"), std::string::npos);
  EXPECT_NE(out.find("filter: pa"), std::string::npos);
  EXPECT_NE(out.find("512KB"), std::string::npos);
}

TEST(ConfigApply, HashKindParsing) {
  EXPECT_EQ(parse_hash_kind("modulo"), HashKind::Modulo);
  EXPECT_EQ(parse_hash_kind("foldxor"), HashKind::FoldXor);
  EXPECT_EQ(parse_hash_kind("fibonacci"), HashKind::Fibonacci);
  EXPECT_EQ(parse_hash_kind("mix64"), HashKind::Mix64);
  EXPECT_THROW(parse_hash_kind("sha256"), std::invalid_argument);
}

}  // namespace
}  // namespace ppf::sim
