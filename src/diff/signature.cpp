#include "diff/signature.hpp"

#include <cstdio>
#include <sstream>

#include "common/hash.hpp"
#include "obs/trace.hpp"
#include "sim/snapshot.hpp"

namespace ppf::diff {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void put(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << key << '=' << v << '\n';
}

void put(std::ostringstream& os, const char* key, double v) {
  os << key << '=' << fmt_double(v) << '\n';
}

void put_sources(std::ostringstream& os, const char* key,
                 const sim::SourceBreakdown& b) {
  os << key << '=' << b.sw << ',' << b.nsp << ',' << b.sdp << ',' << b.stride
     << ',' << b.stream << ',' << b.markov << ',' << b.region << '\n';
}

}  // namespace

std::string result_signature(const sim::SimResult& r,
                             const SignatureOptions& opts) {
  std::ostringstream os;
  os << "workload=" << r.workload << '\n';
  os << "filter=" << r.filter_name << '\n';
  put(os, "core.cycles", r.core.cycles);
  put(os, "core.instructions", r.core.instructions);
  put(os, "core.loads", r.core.loads);
  put(os, "core.stores", r.core.stores);
  put(os, "core.branches", r.core.branches);
  put(os, "core.sw_prefetches", r.core.sw_prefetches);
  put(os, "core.mispredictions", r.core.mispredictions);
  put(os, "core.rob_full_stall_cycles", r.core.rob_full_stall_cycles);
  put(os, "core.lsq_full_stall_cycles", r.core.lsq_full_stall_cycles);
  put(os, "core.fetch_stall_cycles", r.core.fetch_stall_cycles);
  put(os, "l1d_demand_accesses", r.l1d_demand_accesses);
  put(os, "l1d_demand_misses", r.l1d_demand_misses);
  put(os, "l2_demand_accesses", r.l2_demand_accesses);
  put(os, "l2_demand_misses", r.l2_demand_misses);
  put_sources(os, "prefetch_issued", r.prefetch_issued);
  put_sources(os, "prefetch_filtered", r.prefetch_filtered);
  put_sources(os, "prefetch_good", r.prefetch_good);
  put_sources(os, "prefetch_bad", r.prefetch_bad);
  put(os, "prefetch_squashed", r.prefetch_squashed);
  put(os, "l1_normal_traffic", r.l1_normal_traffic);
  put(os, "l1_prefetch_traffic", r.l1_prefetch_traffic);
  put(os, "bus_transfers", r.bus_transfers);
  put(os, "bus_prefetch_transfers", r.bus_prefetch_transfers);
  put(os, "bus_busy_cycles", r.bus_busy_cycles);
  put(os, "filter_admitted", r.filter_admitted);
  put(os, "filter_rejected", r.filter_rejected);
  put(os, "filter_recoveries", r.filter_recoveries);
  put(os, "energy.l1_nj", r.energy.l1_nj);
  put(os, "energy.l2_nj", r.energy.l2_nj);
  put(os, "energy.dram_nj", r.energy.dram_nj);
  put(os, "energy.bus_nj", r.energy.bus_nj);
  put(os, "energy.table_nj", r.energy.table_nj);
  put(os, "avg_load_latency", r.avg_load_latency);
  put(os, "mshr_stalls", r.mshr_stalls);
  put(os, "victim_hits", r.victim_hits);
  put(os, "taxonomy.useful", r.taxonomy.useful);
  put(os, "taxonomy.useful_polluting", r.taxonomy.useful_polluting);
  put(os, "taxonomy.polluting", r.taxonomy.polluting);
  put(os, "taxonomy.useless", r.taxonomy.useless);

  if (opts.include_observation && r.observation != nullptr) {
    const obs::RunObservation& o = *r.observation;
    put(os, "obs.dropped_events", o.dropped_events);
    put(os, "obs.num_events", o.events.size());
    for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
      os << "obs.count." << obs::to_string(static_cast<obs::EventKind>(k))
         << '=' << o.event_counts[k] << '\n';
    }
    for (const auto& [name, value] : o.final_metrics.counters) {
      os << "obs.counter." << name << '=' << value << '\n';
    }
    for (const auto& [name, value] : o.final_metrics.gauges) {
      os << "obs.gauge." << name << '=' << fmt_double(value) << '\n';
    }
    put(os, "obs.ts.rows", o.timeseries.rows.size());
    for (std::size_t c = 0; c < o.timeseries.columns.size(); ++c) {
      std::uint64_t sum = 0;
      for (const obs::TimeSeriesRow& row : o.timeseries.rows) {
        if (c < row.deltas.size()) sum += row.deltas[c];
      }
      os << "obs.ts.sum." << o.timeseries.columns[c] << '=' << sum << '\n';
    }
  }
  return os.str();
}

std::string config_signature(const sim::SimConfig& cfg,
                             const std::string& benchmark) {
  std::ostringstream os;
  os << "bench=" << benchmark << '\n';
  os << "machine=" << sim::warmup_key(cfg) << '\n';
  os << "instructions=" << cfg.max_instructions << '\n';
  os << "energy=" << fmt_double(cfg.energy.l1_access) << ','
     << fmt_double(cfg.energy.l2_access) << ','
     << fmt_double(cfg.energy.dram_access) << ','
     << fmt_double(cfg.energy.bus_beat) << ','
     << fmt_double(cfg.energy.table_lookup) << '\n';
  os << "diff_fail_at=" << cfg.diff_fail_at << '\n';
  return os.str();
}

std::string digest_hex(const std::string& bytes) {
  // FNV-1a over the bytes, then a mix64 finalizer: a cheap, process-stable
  // 64-bit digest with fixed-width hex rendering.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h = mix64(h);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string config_digest(const sim::SimConfig& cfg,
                          const std::string& benchmark) {
  return digest_hex(config_signature(cfg, benchmark));
}

std::string first_divergence(const std::string& lhs, const std::string& rhs) {
  if (lhs == rhs) return "";
  std::istringstream ls(lhs), rs(rhs);
  std::string ll, rl;
  while (true) {
    const bool lok = static_cast<bool>(std::getline(ls, ll));
    const bool rok = static_cast<bool>(std::getline(rs, rl));
    if (!lok && !rok) return "signatures differ (no line-level divergence)";
    if (!lok || !rok || ll != rl) {
      const std::size_t leq = ll.find('=');
      std::string field =
          leq == std::string::npos ? std::string("<line>") : ll.substr(0, leq);
      if (!lok) field = rl.substr(0, rl.find('='));
      return field + ": lhs=" +
             (lok ? (ll.substr(ll.find('=') + 1)) : std::string("<absent>")) +
             " rhs=" +
             (rok ? (rl.substr(rl.find('=') + 1)) : std::string("<absent>"));
    }
  }
}

}  // namespace ppf::diff
