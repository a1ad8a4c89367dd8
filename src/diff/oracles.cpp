#include "diff/oracles.hpp"

#include <utility>

#include "check/check.hpp"
#include "obs/trace.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "runlab/sweep.hpp"
#include "sim/experiment.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace ppf::diff {

OracleContext::OracleContext(ConfigPoint point)
    : point_(std::move(point)), cfg_(to_config(point_)) {}

bool OracleContext::is_static_filter() const {
  return cfg_.filter == "static";
}

const sim::SimResult& OracleContext::baseline() {
  if (!have_baseline_) {
    baseline_ = run_config(cfg_);
    have_baseline_ = true;
  }
  return baseline_;
}

sim::SimResult OracleContext::run_config(const sim::SimConfig& cfg) const {
  return sim::run_benchmark(cfg, point_.benchmark);
}

sim::SimResult OracleContext::run_mutated(
    const std::function<void(sim::SimConfig&)>& mutate) const {
  sim::SimConfig cfg = cfg_;
  mutate(cfg);
  return run_config(cfg);
}

namespace {

OracleOutcome not_applicable() { return {}; }

OracleOutcome verdict(bool ok, std::string detail) {
  OracleOutcome o;
  o.applicable = true;
  o.ok = ok;
  o.detail = ok ? "" : std::move(detail);
  return o;
}

OracleOutcome compare_signatures(const std::string& what,
                                 const std::string& lhs,
                                 const std::string& rhs) {
  if (lhs == rhs) return verdict(true, "");
  return verdict(false, what + " diverge: " + first_divergence(lhs, rhs));
}

/// diff.repeat_determinism — the same config run twice produces
/// byte-identical results. The bedrock oracle: everything else assumes
/// it.
OracleOutcome repeat_determinism(OracleContext& ctx) {
  const std::string a = result_signature(ctx.baseline());
  const std::string b = result_signature(ctx.run_config(ctx.config()));
  return compare_signatures("repeated runs", a, b);
}

/// diff.stream_vs_arena — a materialized arena cursor is a perfect
/// stand-in for the streaming generator it was drained from.
OracleOutcome stream_vs_arena(OracleContext& ctx) {
  if (ctx.is_static_filter()) return not_applicable();
  const sim::SimConfig& cfg = ctx.config();
  const std::uint64_t warmup =
      cfg.warmup_instructions < cfg.max_instructions ? cfg.warmup_instructions
                                                     : 0;
  auto gen = workload::make_benchmark(ctx.point().benchmark, cfg.seed);
  const auto arena =
      workload::materialize(*gen, cfg.max_instructions + warmup);
  workload::TraceCursor cursor(arena);
  const sim::SimResult warm = sim::Simulator(cfg).run(cursor);
  return compare_signatures("streaming vs arena runs",
                            result_signature(ctx.baseline()),
                            result_signature(warm));
}

/// diff.cold_vs_snapshot — resuming from a shared warmup snapshot is
/// byte-identical to paying the warmup cold.
OracleOutcome cold_vs_snapshot(OracleContext& ctx) {
  const sim::SimConfig& cfg = ctx.config();
  if (ctx.is_static_filter() ||
      cfg.warmup_instructions == 0 ||
      cfg.warmup_instructions >= cfg.max_instructions) {
    return not_applicable();
  }
  auto gen = workload::make_benchmark(ctx.point().benchmark, cfg.seed);
  const auto arena = workload::materialize(
      *gen, cfg.max_instructions + cfg.warmup_instructions);
  const auto snap = sim::make_warmup_snapshot(cfg, arena);
  if (snap == nullptr) return not_applicable();  // warmup not reached

  workload::TraceCursor cursor(arena);
  const sim::SimResult cold = sim::Simulator(cfg).run(cursor);
  const sim::SimResult warm = sim::run_from_snapshot(cfg, *snap, arena);
  return compare_signatures("cold vs snapshot runs", result_signature(cold),
                            result_signature(warm));
}

/// diff.jobs1_vs_jobs8 — a runlab batch produces byte-identical JSON on
/// 1 worker and on 8 (submission-order aggregation, shared arenas and
/// snapshots included).
OracleOutcome jobs1_vs_jobs8(OracleContext& ctx) {
  runlab::SweepSpec spec;
  spec.base = ctx.config();
  spec.benchmarks = {ctx.point().benchmark};
  spec.filters = {spec.base.filter};
  if (spec.base.filter != "none") {
    spec.filters.push_back("none");
  }
  spec.seeds = {spec.base.seed, spec.base.seed + 1};

  const std::string serial =
      runlab::to_json(runlab::run_jobs(spec.expand(), runlab::with_workers(1)));
  const std::string parallel =
      runlab::to_json(runlab::run_jobs(spec.expand(), runlab::with_workers(8)));
  if (serial == parallel) return verdict(true, "");
  return verdict(false, "runlab JSON differs between workers=1 and workers=8");
}

/// diff.check_off_vs_paranoid — paranoid invariant sweeps are pure
/// readers: enabling them neither trips nor changes a single counter.
OracleOutcome check_off_vs_paranoid(OracleContext& ctx) {
  sim::SimResult checked;
  try {
    checked = ctx.run_mutated([](sim::SimConfig& cfg) {
      cfg.check.mode = check::CheckMode::Paranoid;
      cfg.check.period = 2000;
    });
  } catch (const check::CheckViolation& e) {
    return verdict(false, std::string("paranoid run tripped an invariant: ") +
                              e.what());
  }
  return compare_signatures("check=off vs check=paranoid runs",
                            result_signature(ctx.baseline()),
                            result_signature(checked));
}

/// diff.obs_invisible — observation never shapes simulated state: an
/// observed run matches an unobserved one on every simulation field, and
/// its event counts reconcile with the classifier's totals.
OracleOutcome obs_invisible(OracleContext& ctx) {
  const sim::SimResult observed = ctx.run_mutated([](sim::SimConfig& cfg) {
    cfg.obs.enabled = true;
    cfg.obs.sample_interval = 4096;
    cfg.obs.capture_events = true;
  });
  const SignatureOptions sim_only{.include_observation = false};
  OracleOutcome out = compare_signatures(
      "obs=off vs obs=on runs", result_signature(ctx.baseline(), sim_only),
      result_signature(observed, sim_only));
  if (!out.ok) return out;

  if (observed.observation == nullptr) {
    return verdict(false, "observed run carries no RunObservation");
  }
  const obs::RunObservation& o = *observed.observation;
  const auto count = [&o](obs::EventKind k) {
    return o.event_counts[static_cast<std::size_t>(k)];
  };
  if (count(obs::EventKind::Issued) != observed.prefetch_issued.total() ||
      count(obs::EventKind::Filtered) != observed.prefetch_filtered.total() ||
      count(obs::EventKind::Squashed) != observed.prefetch_squashed ||
      count(obs::EventKind::EvictReferenced) != observed.good_total() ||
      count(obs::EventKind::EvictDead) != observed.bad_total()) {
    return verdict(false,
                   "obs event counts disagree with classifier totals");
  }
  return verdict(true, "");
}

/// diff.filter_none_no_rejects — a filter=none run rejects nothing:
/// zero filtered prefetches, zero rejections, zero recoveries.
OracleOutcome filter_none_no_rejects(OracleContext& ctx) {
  const sim::SimResult none = ctx.point().value_of("filter", "none") == "none"
                                  ? ctx.baseline()
                                  : ctx.run_mutated([](sim::SimConfig& cfg) {
                                      cfg.filter = "none";
                                    });
  if (none.prefetch_filtered.total() != 0 || none.filter_rejected != 0 ||
      none.filter_recoveries != 0) {
    return verdict(false,
                   "filter=none rejected prefetches (filtered=" +
                       std::to_string(none.prefetch_filtered.total()) +
                       " rejected=" + std::to_string(none.filter_rejected) +
                       " recoveries=" +
                       std::to_string(none.filter_recoveries) + ")");
  }
  return verdict(true, "");
}

/// diff.no_prefetch_no_pollution — with every prefetch source disabled,
/// every prefetch-side counter is exactly zero.
OracleOutcome no_prefetch_no_pollution(OracleContext& ctx) {
  const sim::SimResult quiet = ctx.run_mutated([](sim::SimConfig& cfg) {
    cfg.prefetchers.clear();
    cfg.enable_sw_prefetch = false;
    cfg.filter = "none";
  });
  const bool clean =
      quiet.prefetch_issued.total() == 0 &&
      quiet.prefetch_filtered.total() == 0 && quiet.good_total() == 0 &&
      quiet.bad_total() == 0 && quiet.prefetch_squashed == 0 &&
      quiet.l1_prefetch_traffic == 0 && quiet.bus_prefetch_transfers == 0 &&
      quiet.filter_admitted == 0 && quiet.filter_rejected == 0;
  if (!clean) {
    return verdict(false, "prefetch counters nonzero with all sources off "
                          "(issued=" +
                              std::to_string(quiet.prefetch_issued.total()) +
                              " squashed=" +
                              std::to_string(quiet.prefetch_squashed) +
                              " pf_traffic=" +
                              std::to_string(quiet.l1_prefetch_traffic) + ")");
  }
  return verdict(true, "");
}

/// diff.energy_linear_in_prices — energy is a pure linear pricing of
/// event counts: doubling every per-event price exactly doubles every
/// component (and leaves all counts untouched).
OracleOutcome energy_linear_in_prices(OracleContext& ctx) {
  const sim::SimResult& base = ctx.baseline();
  const sim::SimResult doubled = ctx.run_mutated([](sim::SimConfig& cfg) {
    cfg.energy.l1_access *= 2.0;
    cfg.energy.l2_access *= 2.0;
    cfg.energy.dram_access *= 2.0;
    cfg.energy.bus_beat *= 2.0;
    cfg.energy.table_lookup *= 2.0;
  });
  // Multiplication by 2 is exact in binary floating point, so the
  // comparison is exact equality, not a tolerance.
  const bool linear = doubled.energy.l1_nj == 2.0 * base.energy.l1_nj &&
                      doubled.energy.l2_nj == 2.0 * base.energy.l2_nj &&
                      doubled.energy.dram_nj == 2.0 * base.energy.dram_nj &&
                      doubled.energy.bus_nj == 2.0 * base.energy.bus_nj &&
                      doubled.energy.table_nj == 2.0 * base.energy.table_nj;
  if (!linear) {
    return verdict(false, "doubled prices did not exactly double energy");
  }
  const SignatureOptions sim_only{.include_observation = false};
  std::string a = result_signature(base, sim_only);
  std::string b = result_signature(doubled, sim_only);
  // Energy lines legitimately differ; blank them before the byte diff.
  const auto strip_energy = [](std::string& s) {
    std::string out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      std::size_t nl = s.find('\n', pos);
      if (nl == std::string::npos) nl = s.size() - 1;
      if (s.compare(pos, 7, "energy.") != 0) {
        out.append(s, pos, nl - pos + 1);
      }
      pos = nl + 1;
    }
    s = out;
  };
  strip_energy(a);
  strip_energy(b);
  return compare_signatures("event counts under doubled energy prices", a, b);
}

/// diff.l1_bigger_no_more_misses — growing the L1 by adding ways (same
/// set count, LRU) never adds demand misses. Restricted to a derived
/// prefetch-free occupancy-model pair so the per-set LRU stack property
/// actually applies: prefetchers and timing-dependent reordering could
/// legitimately break monotonicity.
OracleOutcome l1_bigger_no_more_misses(OracleContext& ctx) {
  const auto quiet = [](sim::SimConfig& cfg) {
    cfg.prefetchers.clear();
    cfg.enable_sw_prefetch = false;
    cfg.filter = "none";
    cfg.victim_cache_entries = 0;
    cfg.core_model = sim::CoreModel::Occupancy;
    cfg.l1d.replacement = mem::ReplacementKind::Lru;
  };
  const sim::SimResult small = ctx.run_mutated(quiet);
  const sim::SimResult big = ctx.run_mutated([&](sim::SimConfig& cfg) {
    quiet(cfg);
    // x4 capacity via x4 associativity: the set count is unchanged, so
    // every set's LRU stack in the small cache is a prefix of the big
    // cache's and the reference stream per set is identical.
    cfg.l1d.size_bytes *= 4;
    cfg.l1d.associativity =
        cfg.l1d.associativity == 0 ? 0 : cfg.l1d.associativity * 4;
  });
  if (big.l1d_demand_misses > small.l1d_demand_misses) {
    return verdict(false,
                   "4x-associativity L1 missed more: " +
                       std::to_string(big.l1d_demand_misses) + " > " +
                       std::to_string(small.l1d_demand_misses));
  }
  return verdict(true, "");
}

/// diff.issued_classified — prefetch conservation at end of run: after
/// the finalize drain every measurement-window prefetch has exactly one
/// verdict, so good+bad == issued with no warmup. An active warmup
/// weakens the relation to >=: prefetches issued before the stats reset
/// are still classified after it (the checker's
/// hier.classifier_conservation invariant carries an explicit
/// unclassified-at-baseline term for exactly this population).
OracleOutcome issued_classified(OracleContext& ctx) {
  const sim::SimResult& r = ctx.baseline();
  const sim::SimConfig& cfg = ctx.config();
  const bool warm = cfg.warmup_instructions > 0 &&
                    cfg.warmup_instructions < cfg.max_instructions;
  const std::uint64_t classified = r.good_total() + r.bad_total();
  const bool conserved = warm ? classified >= r.prefetch_issued.total()
                              : classified == r.prefetch_issued.total();
  if (!conserved) {
    return verdict(false,
                   "good+bad vs issued (" + std::to_string(r.good_total()) +
                       "+" + std::to_string(r.bad_total()) +
                       (warm ? " < " : " != ") +
                       std::to_string(r.prefetch_issued.total()) + ")");
  }
  if (r.l1d_demand_misses > r.l1d_demand_accesses ||
      r.l2_demand_misses > r.l2_demand_accesses ||
      r.bus_prefetch_transfers > r.bus_transfers) {
    return verdict(false, "count bound violated (misses>accesses or "
                          "prefetch transfers>bus transfers)");
  }
  const double l1r = r.l1d_miss_rate();
  const double l2r = r.l2_miss_rate();
  if (!(l1r >= 0.0 && l1r <= 1.0) || !(l2r >= 0.0 && l2r <= 1.0)) {
    return verdict(false, "miss rate outside [0,1]");
  }
  return verdict(true, "");
}

}  // namespace

const std::vector<Oracle>& oracle_catalogue() {
  static const std::vector<Oracle> catalogue = {
      {"diff.repeat_determinism",
       "identical config twice -> byte-identical results", repeat_determinism},
      {"diff.stream_vs_arena",
       "materialized trace cursor == streaming generator", stream_vs_arena},
      {"diff.cold_vs_snapshot",
       "warmup-snapshot resume == cold warmup", cold_vs_snapshot},
      {"diff.jobs1_vs_jobs8",
       "runlab JSON identical on 1 and 8 workers", jobs1_vs_jobs8},
      {"diff.check_off_vs_paranoid",
       "paranoid checking neither trips nor perturbs", check_off_vs_paranoid},
      {"diff.obs_invisible",
       "observation changes nothing; counts reconcile", obs_invisible},
      {"diff.filter_none_no_rejects",
       "filter=none rejects and recovers nothing", filter_none_no_rejects},
      {"diff.no_prefetch_no_pollution",
       "all prefetchers off -> all prefetch counters zero",
       no_prefetch_no_pollution},
      {"diff.energy_linear_in_prices",
       "2x energy prices -> exactly 2x energy, same counts",
       energy_linear_in_prices},
      {"diff.l1_bigger_no_more_misses",
       "4x-way L1 (same sets, LRU, no prefetch) never misses more",
       l1_bigger_no_more_misses},
      {"diff.issued_classified",
       "issued == good+bad after drain; count bounds hold",
       issued_classified},
  };
  return catalogue;
}

Oracle tripwire_oracle() {
  Oracle o;
  o.id = "diff.tripwire";
  o.summary = "synthetic planted bug: flags any point with nsp_degree set";
  o.evaluate = [](OracleContext& ctx) {
    OracleOutcome out;
    out.applicable = true;
    out.ok = !ctx.point().has("nsp_degree");
    if (!out.ok) {
      out.detail = "tripwire: point carries nsp_degree=" +
                   ctx.point().value_of("nsp_degree", "?");
    }
    return out;
  };
  return o;
}

}  // namespace ppf::diff
