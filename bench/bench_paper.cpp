// The paper's evaluation — Table 2, Figures 1-16 and the Section 5.2.1
// text results — from one deduplicated sweep.
//
//   ./bench_paper [fig=all|NAME,NAME,...] [jobs=N] [key=value ...]
//
// Each figure is one row of `figures()`, whose printer reads every
// result it needs through `runs(cfg, bench)`. bench_paper calls the
// selected printers twice. The first pass only collects the (config,
// benchmark) pairs, so a printer's requests must not depend on results.
// It then runs each distinct pair once (by diff::config_digest)
// in one runlab::run_jobs call, so the ten benchmark traces are built
// once and shared, and the second pass prints. Figures print in table
// order; the output of `fig=all` at the defaults is committed as
// bench/paper_figures.txt. Remaining key=value args configure the base
// machine.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bench_common.hpp"
#include "diff/signature.hpp"

using namespace ppf;

namespace {

/// The results the printers read, keyed by (config, benchmark).
class Runs {
 public:
  /// In the collecting pass, records the pair as a job and returns a
  /// zero result. In the printing pass, returns the pair's result and
  /// throws std::logic_error for a pair the first pass did not collect.
  const sim::SimResult& operator()(const sim::SimConfig& cfg,
                                   const std::string& bench) {
    const std::string key = diff::config_digest(cfg, bench);
    if (collecting_) {
      ++requested_;
      if (slot_.emplace(key, jobs_.size()).second) {
        runlab::Job job;
        job.index = jobs_.size();
        job.benchmark = bench;
        job.filter_name = cfg.filter;
        job.seed = cfg.seed;
        job.config = cfg;
        jobs_.push_back(std::move(job));
      }
      return zero_;
    }
    const auto it = slot_.find(key);
    if (it == slot_.end()) {
      throw std::logic_error("bench_paper: no collected run for " + bench +
                             " under config " + key);
    }
    return results_[it->second].result;
  }

  /// Runs every collected job and switches to the printing pass. Prints
  /// each failed job's error, which starts with its runlab::job_repro,
  /// to stderr and returns false if any failed.
  bool execute(std::size_t workers) {
    results_ =
        runlab::run_jobs(jobs_, runlab::with_workers(workers)).results;
    collecting_ = false;
    bool ok = true;
    for (const runlab::JobResult& jr : results_) {
      if (jr.ok) continue;
      std::cerr << jr.error << "\n";
      ok = false;
    }
    return ok;
  }

  [[nodiscard]] std::size_t requested() const { return requested_; }
  [[nodiscard]] std::size_t distinct() const { return jobs_.size(); }

 private:
  bool collecting_ = true;
  std::size_t requested_ = 0;
  std::map<std::string, std::size_t> slot_;  ///< config digest -> job
  std::vector<runlab::Job> jobs_;
  std::vector<runlab::JobResult> results_;
  sim::SimResult zero_;
};

/// What a printer is handed: the stream it writes to, the base (Table 1)
/// machine and the result lookup.
struct Page {
  std::ostream& os;
  sim::SimConfig base;
  Runs& runs;
};

/// One row of the evaluation: the `fig=` name, the banner and the
/// printer that fills the page below it.
struct Figure {
  const char* name;
  const char* id;
  const char* what;
  void (*print)(Page);
};

/// The number a figure reads from one run.
using Metric = double (*)(const sim::SimResult&);
/// A figure's columns: each a label plus a mutator of the base machine.
using Columns = std::vector<runlab::ConfigVariant>;

double ipc(const sim::SimResult& r) { return r.ipc(); }
double bad_good(const sim::SimResult& r) { return r.bad_good_ratio(); }
double good(const sim::SimResult& r) {
  return static_cast<double>(r.good_total());
}
double bad(const sim::SimResult& r) {
  return static_cast<double>(r.bad_total());
}

/// printf-style formatting for the summary lines under the tables.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// The three default evaluation scenarios of Section 5.2 (no filter,
/// PA, PC) over the page's base machine.
sim::ScenarioResults scenarios(const Page& p, const std::string& name) {
  sim::ScenarioResults r;
  sim::SimConfig cfg = p.base;
  cfg.filter = "none";
  r.none = p.runs(cfg, name);
  cfg.filter = "pa";
  r.pa = p.runs(cfg, name);
  cfg.filter = "pc";
  r.pc = p.runs(cfg, name);
  return r;
}

// Table 2 — L1/L2 demand miss rates with all prefetching turned off,
// next to the paper's numbers.
void table2(Page p) {
  p.base.prefetchers.clear();
  p.base.enable_sw_prefetch = false;
  sim::Table t({"benchmark", "L1 miss% (sim)", "L1 miss% (paper)",
                "L2 miss% (sim)", "L2 miss% (paper)", "IPC"});
  for (const std::string& name : workload::benchmark_names()) {
    const sim::SimResult& r = p.runs(p.base, name);
    const auto paper = workload::paper_miss_rates(name);
    t.add_row({name, sim::fmt_pct(r.l1d_miss_rate(), 2),
               sim::fmt_pct(paper.l1, 2), sim::fmt_pct(r.l2_miss_rate(), 2),
               sim::fmt_pct(paper.l2, 2), sim::fmt(r.ipc())});
  }
  t.print(p.os);
  p.os << "\nShape check: synthetic workloads land in the same miss-rate"
          " regime per benchmark\n(the paper ran the real programs for"
          " 300M instructions on real inputs).\n";
}

// Figure 1 — good vs bad fraction of all issued prefetches with NSP +
// SDP + software prefetching and no pollution filtering. Paper: ~48% of
// prefetches are bad on average.
void fig1(Page p) {
  p.base.filter = "none";
  sim::Table t({"benchmark", "good", "bad", "good frac", "bad frac", "sw",
                "nsp", "sdp"});
  double bad_frac_sum = 0.0;
  const auto& names = workload::benchmark_names();
  for (const std::string& name : names) {
    const sim::SimResult& r = p.runs(p.base, name);
    const double total = static_cast<double>(r.good_total() + r.bad_total());
    const double badf = total == 0 ? 0.0 : r.bad_total() / total;
    bad_frac_sum += badf;
    t.add_row({name, sim::fmt_u64(r.good_total()),
               sim::fmt_u64(r.bad_total()), sim::fmt_pct(1.0 - badf),
               sim::fmt_pct(badf), sim::fmt_u64(r.prefetch_issued.sw),
               sim::fmt_u64(r.prefetch_issued.nsp),
               sim::fmt_u64(r.prefetch_issued.sdp)});
  }
  t.print(p.os);
  p.os << "\nmean bad fraction: "
       << sim::fmt_pct(bad_frac_sum / static_cast<double>(names.size()))
       << "   (paper: 48% on average; >50% in 4 of 10 benchmarks)\n";
}

// Figure 2 — prefetch-induced L1 line traffic vs normal (demand)
// traffic, no filtering. Paper: prefetch:normal averages 0.41 (max 0.57
// ijpeg, min 0.29 gzip).
void fig2(Page p) {
  p.base.filter = "none";
  sim::Table t({"benchmark", "normal traffic", "prefetch traffic",
                "pf:normal ratio", "pf share of bus"});
  double ratio_sum = 0.0;
  const auto& names = workload::benchmark_names();
  for (const std::string& name : names) {
    const sim::SimResult& r = p.runs(p.base, name);
    ratio_sum += r.prefetch_traffic_ratio();
    t.add_row({name, sim::fmt_u64(r.l1_normal_traffic),
               sim::fmt_u64(r.l1_prefetch_traffic),
               sim::fmt(r.prefetch_traffic_ratio()),
               sim::fmt_pct(r.bus_transfers == 0
                                ? 0.0
                                : static_cast<double>(
                                      r.bus_prefetch_transfers) /
                                      static_cast<double>(r.bus_transfers))});
  }
  t.print(p.os);
  p.os << "\nmean prefetch:normal traffic ratio: "
       << sim::fmt(ratio_sum / names.size())
       << "   (paper: 0.41 mean, 0.29-0.57 range)\n";
}

// Figures 4 and 7: bad and good prefetch counts under no-filter / PA /
// PC, normalised to the no-filter good count. Paper, 8KB: PA removes
// ~97% of bad prefetches and PC ~98%, at the cost of ~51% / ~48% of good
// ones; 32KB: ~91% / ~92% of bad, only 35% / 27% of good.
void prefetch_counts(Page p) {
  sim::Table t({"benchmark", "bad:none", "bad:PA", "bad:PC", "good:none",
                "good:PA", "good:PC"});
  double bad_rm_pa = 0, bad_rm_pc = 0, good_rm_pa = 0, good_rm_pc = 0;
  int counted = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = scenarios(p, name);
    const double g0 = static_cast<double>(r.none.good_total());
    auto norm = [&](std::uint64_t v) {
      return g0 == 0 ? 0.0 : static_cast<double>(v) / g0;
    };
    t.add_row({name, sim::fmt(norm(r.none.bad_total())),
               sim::fmt(norm(r.pa.bad_total())),
               sim::fmt(norm(r.pc.bad_total())), sim::fmt(norm(g0)),
               sim::fmt(norm(r.pa.good_total())),
               sim::fmt(norm(r.pc.good_total()))});
    if (r.none.bad_total() > 0 && r.none.good_total() > 0) {
      bad_rm_pa += 1.0 - static_cast<double>(r.pa.bad_total()) /
                             static_cast<double>(r.none.bad_total());
      bad_rm_pc += 1.0 - static_cast<double>(r.pc.bad_total()) /
                             static_cast<double>(r.none.bad_total());
      good_rm_pa += 1.0 - static_cast<double>(r.pa.good_total()) / g0;
      good_rm_pc += 1.0 - static_cast<double>(r.pc.good_total()) / g0;
      ++counted;
    }
  }
  t.print(p.os);
  if (counted > 0) {
    const double n = counted;
    p.os << strf(
        "\nmean bad-prefetch reduction:  PA %.0f%%  PC %.0f%%\n"
        "mean good-prefetch reduction: PA %.0f%%  PC %.0f%%\n",
        100 * bad_rm_pa / n, 100 * bad_rm_pc / n, 100 * good_rm_pa / n,
        100 * good_rm_pc / n);
  }
}

// Figures 5 and 8: bad/good prefetch ratio for no-filter / PA / PC.
// Paper: the ratio drops ~70% (PA) and ~91% (PC) at 8KB, ~75% / ~93% at
// 32KB.
void bad_good_ratios(Page p) {
  sim::Table t({"benchmark", "none", "PA", "PC", "PA reduction",
                "PC reduction"});
  double red_pa = 0, red_pc = 0;
  int counted = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = scenarios(p, name);
    const double b0 = r.none.bad_good_ratio();
    const double bpa = r.pa.bad_good_ratio();
    const double bpc = r.pc.bad_good_ratio();
    const double rpa = b0 == 0 ? 0.0 : 1.0 - bpa / b0;
    const double rpc = b0 == 0 ? 0.0 : 1.0 - bpc / b0;
    t.add_row({name, sim::fmt(b0), sim::fmt(bpa), sim::fmt(bpc),
               sim::fmt_pct(rpa), sim::fmt_pct(rpc)});
    if (b0 > 0) {
      red_pa += rpa;
      red_pc += rpc;
      ++counted;
    }
  }
  t.print(p.os);
  if (counted > 0) {
    p.os << strf("\nmean bad/good-ratio reduction: PA %.0f%%  PC %.0f%%\n",
                 100 * red_pa / counted, 100 * red_pc / counted);
  }
}

// Figures 6 and 9: IPC for no-filter / PA / PC. Paper: filtering
// improves IPC on every benchmark; mean gain 8.2% (PA) / 9.1% (PC) at
// 8KB, 7.0% / 8.1% at 32KB.
void ipc_comparison(Page p) {
  sim::Table t({"benchmark", "IPC:none", "IPC:PA", "IPC:PC", "PA gain",
                "PC gain"});
  double gain_pa = 0, gain_pc = 0;
  int n = 0;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::ScenarioResults r = scenarios(p, name);
    const double gp = r.pa.ipc() / r.none.ipc() - 1.0;
    const double gc = r.pc.ipc() / r.none.ipc() - 1.0;
    t.add_row({name, sim::fmt(r.none.ipc()), sim::fmt(r.pa.ipc()),
               sim::fmt(r.pc.ipc()), sim::fmt_pct(gp), sim::fmt_pct(gc)});
    gain_pa += gp;
    gain_pc += gc;
    ++n;
  }
  t.print(p.os);
  p.os << strf("\nmean IPC gain over no-filtering: PA %.1f%%  PC %.1f%%\n",
               100 * gain_pa / n, 100 * gain_pc / n);
}

/// Figures 10-12: history-table sizes 1K..16K entries (PA filter).
Columns history_sizes() {
  Columns cols;
  for (std::size_t k : {1, 2, 4, 8, 16}) {
    cols.push_back({std::to_string(k) + "K", [k](sim::SimConfig& c) {
                      c.history.entries = k * 1024;
                    }});
  }
  return cols;
}

/// Figures 13-14: 3/4/5 L1 ports at 1/2/3-cycle latency (PA filter).
Columns l1_ports() {
  Columns cols;
  for (unsigned n : {3u, 4u, 5u}) {
    cols.push_back({std::to_string(n) + " ports",
                    [n](sim::SimConfig& c) { c.set_l1d_ports(n); }});
  }
  return cols;
}

runlab::ConfigVariant with_buffer(std::string label, std::string filter,
                                  bool buffer) {
  return {std::move(label), [filter, buffer](sim::SimConfig& c) {
            c.filter = filter;
            c.use_prefetch_buffer = buffer;
          }};
}

/// Figures 15-16: PA and PC filters without and with a dedicated
/// 16-entry fully-associative prefetch buffer.
Columns prefetch_buffer() {
  return {with_buffer("PA", "pa", false), with_buffer("PA+buf", "pa", true),
          with_buffer("PC", "pc", false), with_buffer("PC+buf", "pc", true)};
}

/// `metric` per benchmark (rows) and column variant of the base machine.
std::vector<std::vector<double>> grid(const Page& p, const Columns& cols,
                                      Metric metric) {
  std::vector<std::vector<double>> rows;
  for (const std::string& name : workload::benchmark_names()) {
    std::vector<double>& row = rows.emplace_back();
    for (const runlab::ConfigVariant& col : cols) {
      sim::SimConfig cfg = p.base;
      col.apply(cfg);
      row.push_back(metric(p.runs(cfg, name)));
    }
  }
  return rows;
}

std::vector<std::string> headers(const Columns& cols) {
  std::vector<std::string> h{"benchmark"};
  for (const runlab::ConfigVariant& col : cols) h.push_back(col.label);
  return h;
}

// Figures 10 and 11: the PA filter's good or bad prefetch count per
// history-table size, normalised to the default 4096-entry table.
// Paper: good prefetches increase with longer tables (gap, gzip, mcf
// nearly insensitive); bad counts are small, and some *increase* with
// longer tables (first-touch entries are assumed good).
void history_counts(Page p, Metric metric) {
  p.base.filter = "pa";
  const Columns cols = history_sizes();
  const std::vector<std::vector<double>> rows = grid(p, cols, metric);
  sim::Table t(headers(cols));
  for (std::size_t b = 0; b < rows.size(); ++b) {
    const double ref = rows[b][2] == 0 ? 1.0 : rows[b][2];  // the 4K column
    std::vector<std::string> row{workload::benchmark_names()[b]};
    for (double v : rows[b]) row.push_back(sim::fmt(v / ref));
    t.add_row(std::move(row));
  }
  t.print(p.os);
}

/// `metric` per benchmark and column, plus a MEAN row when `mean_row`;
/// returns the column sums.
std::vector<double> column_table(const Page& p, const Columns& cols,
                                 Metric metric, bool mean_row) {
  const std::vector<std::vector<double>> rows = grid(p, cols, metric);
  sim::Table t(headers(cols));
  std::vector<double> sum(cols.size(), 0.0);
  for (std::size_t b = 0; b < rows.size(); ++b) {
    std::vector<std::string> row{workload::benchmark_names()[b]};
    for (std::size_t i = 0; i < cols.size(); ++i) {
      sum[i] += rows[b][i];
      row.push_back(sim::fmt(rows[b][i]));
    }
    t.add_row(std::move(row));
  }
  if (mean_row) {
    std::vector<std::string> row{"MEAN"};
    for (double s : sum) row.push_back(sim::fmt(s / rows.size()));
    t.add_row(std::move(row));
  }
  t.print(p.os);
  return sum;
}

// Figures 12-14: IPC vs history-table size, and bad/good ratio and IPC
// vs L1 ports, all under the PA filter. Paper: IPC rises ~6% from 2048
// to 4096 entries and within ~1% beyond; more ports lower the ratio (~6%
// from 3 to 4, ~2% more to 5) and lift IPC ~4% then <1%.
void pa_sweep(Page p, const Columns& cols, Metric metric) {
  p.base.filter = "pa";
  column_table(p, cols, metric, true);
}

// Figure 15: bad/good ratio with and without the prefetch buffer. Paper:
// the buffer degrades the filters' effectiveness in most programs.
void buffer_ratios(Page p) {
  column_table(p, prefetch_buffer(), bad_good, false);
}

// Figure 16: IPC with and without the prefetch buffer. Paper: the buffer
// costs ~9% (PA) / ~10% (PC) IPC on average next to the filters.
void buffer_ipc(Page p) {
  const std::vector<double> sum =
      column_table(p, prefetch_buffer(), ipc, true);
  p.os << strf(
      "\nbuffer IPC change: PA %+.1f%%  PC %+.1f%%   (paper: -9%% / -10%% — "
      "see EXPERIMENTS.md\nfor why this reproduction inverts here)\n",
      100 * (sum[1] / sum[0] - 1.0), 100 * (sum[3] / sum[2] - 1.0));
}

// Section 5.2.1 (text results) — per-prefetcher filter effectiveness,
// the 16KB-L1 comparison, the static-filter comparison [18], and the
// adaptive "advanced feature". Paper text:
//  * NSP alone: good/bad ratio 1.8 without filtering; the PA filter
//    removes 97.5% of bad and 48.1% of good prefetches.
//  * SDP alone: good/bad ratio 11.7; filtering removes 68.3% of bad and
//    61.9% of good — an accurate prefetcher makes filtering *less* useful.
//  * Doubling the L1 to 16KB (2-cycle latency) beats adding the 1KB
//    history table in raw speedup (~20%) but costs far more area.
//  * The dynamic filter outperforms the profile-based static filter [18]
//    (reported at 2-4% gains).
void sec521(Page p) {
  const sim::SimConfig& base = p.base;
  const auto& names = workload::benchmark_names();
  const double n = static_cast<double>(names.size());

  p.os << "Per-prefetcher analysis (aggregate over all benchmarks, PA "
          "filter):\n";
  sim::Table t1({"prefetcher", "good/bad (none)", "bad removed",
                 "good removed", "IPC delta"});
  for (auto [label, nsp, sdp] :
       {std::tuple{"NSP only", true, false}, {"SDP only", false, true}}) {
    double good0 = 0, bad0 = 0, good1 = 0, bad1 = 0, ipc0 = 0, ipc1 = 0;
    for (const std::string& name : names) {
      sim::SimConfig cfg = base;
      cfg.set_prefetcher("nsp", nsp);
      cfg.set_prefetcher("sdp", sdp);
      cfg.enable_sw_prefetch = false;
      cfg.filter = "none";
      const sim::SimResult& r0 = p.runs(cfg, name);
      cfg.filter = "pa";
      const sim::SimResult& r1 = p.runs(cfg, name);
      good0 += good(r0);
      bad0 += bad(r0);
      good1 += good(r1);
      bad1 += bad(r1);
      ipc0 += r0.ipc();
      ipc1 += r1.ipc();
    }
    t1.add_row({label, sim::fmt(bad0 == 0 ? 0.0 : good0 / bad0, 2),
                sim::fmt_pct(bad0 == 0 ? 0.0 : 1.0 - bad1 / bad0),
                sim::fmt_pct(good0 == 0 ? 0.0 : 1.0 - good1 / good0),
                sim::fmt_pct(ipc1 / ipc0 - 1.0)});
  }
  t1.print(p.os);
  p.os << "(paper: NSP good/bad 1.8, 97.5% bad / 48.1% good removed; "
          "SDP good/bad 11.7, 68.3% bad / 61.9% good removed)\n\n";

  p.os << "Bigger cache vs pollution filter:\n";
  double ipc8 = 0, ipc8pa = 0, ipc16 = 0;
  for (const std::string& name : names) {
    sim::SimConfig cfg = base;
    cfg.filter = "none";
    ipc8 += p.runs(cfg, name).ipc();
    cfg.filter = "pa";
    ipc8pa += p.runs(cfg, name).ipc();
    sim::SimConfig big = base;
    big.set_l1d_size_kb(16);
    big.filter = "none";
    ipc16 += p.runs(big, name).ipc();
  }
  sim::Table t2({"configuration", "mean IPC", "vs 8KB no-filter"});
  t2.add_row({"8KB L1, no filter", sim::fmt(ipc8 / n), "-"});
  t2.add_row({"8KB L1 + 1KB PA filter", sim::fmt(ipc8pa / n),
              sim::fmt_pct(ipc8pa / ipc8 - 1.0)});
  t2.add_row({"16KB L1 (2cy), no filter", sim::fmt(ipc16 / n),
              sim::fmt_pct(ipc16 / ipc8 - 1.0)});
  t2.print(p.os);
  p.os << "(paper: 16KB gives ~20% but costs 8KB of SRAM vs the "
          "filter's 1KB)\n\n";

  p.os << "Static profile-based filter [18] vs dynamic PA filter:\n";
  sim::Table t3({"benchmark", "IPC none", "IPC static", "IPC PA",
                 "static gain", "PA gain"});
  double g_static = 0, g_pa = 0;
  for (const std::string& name : names) {
    sim::SimConfig cfg = base;
    cfg.filter = "none";
    const double i0 = p.runs(cfg, name).ipc();
    cfg.filter = "static";
    const double is = p.runs(cfg, name).ipc();
    cfg.filter = "pa";
    const double ia = p.runs(cfg, name).ipc();
    t3.add_row({name, sim::fmt(i0), sim::fmt(is), sim::fmt(ia),
                sim::fmt_pct(is / i0 - 1.0), sim::fmt_pct(ia / i0 - 1.0)});
    g_static += is / i0 - 1.0;
    g_pa += ia / i0 - 1.0;
  }
  t3.print(p.os);
  p.os << strf("mean gain: static %.1f%%, dynamic PA %.1f%% "
               "(paper: static 2-4%%, dynamic better)\n\n",
               100 * g_static / n, 100 * g_pa / n);

  p.os << "Adaptive (accuracy-gated) filter — the paper's proposed "
          "advanced feature:\n";
  sim::Table t4({"benchmark", "IPC none", "IPC PA", "IPC adaptive"});
  for (const std::string& name : names) {
    sim::SimConfig cfg = base;
    cfg.filter = "none";
    const double i0 = p.runs(cfg, name).ipc();
    cfg.filter = "pa";
    const double ia = p.runs(cfg, name).ipc();
    cfg.filter = "adaptive";
    const double iad = p.runs(cfg, name).ipc();
    t4.add_row({name, sim::fmt(i0), sim::fmt(ia), sim::fmt(iad)});
  }
  t4.print(p.os);
}

/// The evaluation, in the paper's order. A new experiment is one row.
const std::vector<Figure>& figures() {
  static const std::vector<Figure> table = {
      {"table2", "Table 2", "benchmark properties (prefetch off)", table2},
      {"fig1", "Figure 1", "effectiveness of prefetches (no filtering)",
       fig1},
      {"fig2", "Figure 2", "traffic distribution of the L1 cache", fig2},
      {"fig4", "Figure 4", "bad/good prefetch counts, 8KB D-cache",
       prefetch_counts},
      {"fig5", "Figure 5", "bad/good prefetch ratios, 8KB D-cache",
       bad_good_ratios},
      {"fig6", "Figure 6", "IPC comparison, 8KB D-cache", ipc_comparison},
      {"fig7", "Figure 7", "bad/good prefetch counts, 32KB D-cache",
       [](Page p) {
         p.base.set_l1d_size_kb(32);
         prefetch_counts(p);
       }},
      {"fig8", "Figure 8", "bad/good prefetch ratios, 32KB D-cache",
       [](Page p) {
         p.base.set_l1d_size_kb(32);
         bad_good_ratios(p);
       }},
      {"fig9", "Figure 9", "IPC comparison, 32KB D-cache",
       [](Page p) {
         p.base.set_l1d_size_kb(32);
         ipc_comparison(p);
       }},
      {"fig10", "Figure 10",
       "good prefetches vs history-table size (PA, normalised to 4K)",
       [](Page p) { history_counts(p, good); }},
      {"fig11", "Figure 11",
       "bad prefetches vs history-table size (PA, normalised to 4K)",
       [](Page p) { history_counts(p, bad); }},
      {"fig12", "Figure 12", "IPC vs history-table size (PA filter)",
       [](Page p) { pa_sweep(p, history_sizes(), ipc); }},
      {"fig13", "Figure 13",
       "bad/good ratio vs L1 ports (PA filter; latency 1/2/3 cycles)",
       [](Page p) { pa_sweep(p, l1_ports(), bad_good); }},
      {"fig14", "Figure 14",
       "IPC vs L1 ports (PA filter; latency 1/2/3 cycles)",
       [](Page p) { pa_sweep(p, l1_ports(), ipc); }},
      {"fig15", "Figure 15",
       "bad/good ratio: PA/PC filters with and without a prefetch buffer",
       buffer_ratios},
      {"fig16", "Figure 16",
       "IPC: PA/PC filters with and without a prefetch buffer", buffer_ipc},
      {"sec521", "Section 5.2.1",
       "per-prefetcher, 16KB-L1, static filter, adaptive filter", sec521},
  };
  return table;
}

/// The figures `list` names (comma-separated; `all` is every row), in
/// table order. Throws std::invalid_argument for an unknown name or an
/// empty selection.
std::vector<const Figure*> selected_figures(const std::string& list) {
  const std::vector<Figure>& table = figures();
  std::vector<bool> wanted(table.size(), false);
  std::stringstream ss(list);
  for (std::string name; std::getline(ss, name, ',');) {
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&](const Figure& f) { return name == f.name; });
    if (name == "all") {
      wanted.assign(table.size(), true);
    } else if (it != table.end()) {
      wanted[it - table.begin()] = true;
    } else {
      throw std::invalid_argument("unknown figure '" + name + "'");
    }
  }
  std::vector<const Figure*> figs;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (wanted[i]) figs.push_back(&table[i]);
  }
  if (figs.empty()) throw std::invalid_argument("fig= names no figure");
  return figs;
}

void print_all(const std::vector<const Figure*>& figs, std::ostream& os,
               const sim::SimConfig& base, Runs& runs) {
  for (const Figure* f : figs) {
    sim::print_experiment_header(os, f->id, f->what);
    f->print(Page{os, base, runs});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, {{"fig", "comma list of figures to print (default all)"}});
  std::vector<const Figure*> figs;
  try {
    figs = selected_figures(cli.params.get_string("fig", "all"));
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "; valid: all";
    for (const Figure& f : figures()) std::cerr << ' ' << f.name;
    std::cerr << "\n";
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  Runs runs;
  std::ostream discard(nullptr);
  print_all(figs, discard, cli.cfg, runs);
  if (!runs.execute(cli.jobs)) return 1;
  print_all(figs, std::cout, cli.cfg, runs);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  std::cerr << "bench_paper: printed";
  for (const Figure* f : figs) std::cerr << ' ' << f->name;
  std::cerr << "; " << runs.requested() << " runs requested, "
            << runs.distinct() << " distinct jobs, "
            << sim::fmt(wall.count(), 1) << " s\n";
  return 0;
}
