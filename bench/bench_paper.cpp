// The paper's evaluation — Table 2, Figures 1-16 and the Section 5.2.1
// text results — and the extension studies beyond it (ablation, extras,
// energy, phases, seeds, sensitivity, models) from one deduplicated
// sweep.
//
//   ./bench_paper [fig=all|NAME,NAME,...] [jobs=N] [key=value ...]
//
// Each figure or study is one row of `figures()`, whose printer reads
// every result it needs through `runs(cfg, bench)`. bench_paper calls
// the selected printers twice. The first pass only collects the (config,
// benchmark) pairs, so a printer's requests must not depend on results.
// It then runs each distinct pair once (by diff::config_digest)
// in one runlab::run_jobs call, so each benchmark trace is built at
// most once and shared, and the second pass prints. The one printer whose
// traces are not benchmark traces (phases) simulates directly, in the
// printing pass only. Rows print in table order; the output of `fig=all`
// at the defaults is committed as bench/paper_figures.txt. Remaining
// key=value args configure the base machine.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bench_common.hpp"
#include "diff/signature.hpp"
#include "workload/interleaved.hpp"

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

  /// True in the collecting pass, where a printer that simulates on its
  /// own skips its runs.
  [[nodiscard]] bool collecting() const { return collecting_; }
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

// Ablation — the filter design choices DESIGN.md calls out: history-table
// counter width and initial value, index hash, per-source index
// separation, the rejected-prefetch recovery buffer (the TC'07
// mechanism), NSP aggressiveness and an added stride prefetcher. Each row
// is the mean over a representative benchmark subset under the PA filter.
void ablation(Page p) {
  p.base.filter = "pa";
  const std::vector<std::string> subset = {"em3d", "perimeter", "wave5",
                                           "gzip", "mcf"};
  Columns variants = {{"default (2-bit, init 2, modulo, src-sep, recovery)",
                       [](sim::SimConfig&) {}}};
  for (unsigned bits : {1u, 3u}) {
    variants.push_back({"counter bits = " + std::to_string(bits),
                        [bits](sim::SimConfig& c) {
                          c.history.counter_bits = bits;
                          c.history.init_value = static_cast<std::uint8_t>(
                              bits == 1 ? 1 : (1u << bits) / 2);
                        }});
  }
  variants.push_back({"init value = 3 (strongly good)",
                      [](sim::SimConfig& c) { c.history.init_value = 3; }});
  for (auto hk : {HashKind::FoldXor, HashKind::Fibonacci, HashKind::Mix64}) {
    variants.push_back({std::string("hash = ") + to_string(hk),
                        [hk](sim::SimConfig& c) { c.history.hash = hk; }});
  }
  variants.push_back({"source separation OFF", [](sim::SimConfig& c) {
                        c.history.source_separated = false;
                      }});
  variants.push_back(
      {"recovery buffer OFF (paper-literal filter)",
       [](sim::SimConfig& c) { c.filter_recovery_entries = 0; }});
  variants.push_back({"NSP degree 1 (less aggressive)",
                      [](sim::SimConfig& c) { c.nsp_degree = 1; }});
  variants.push_back({"stride (RPT) prefetcher added", [](sim::SimConfig& c) {
                        c.set_prefetcher("stride", true);
                      }});

  sim::Table t({"variant", "mean IPC", "mean bad/good", "good total",
                "bad total"});
  const double n = static_cast<double>(subset.size());
  for (const runlab::ConfigVariant& v : variants) {
    sim::SimConfig cfg = p.base;
    v.apply(cfg);
    double ipc_sum = 0, bad_good_sum = 0, good_sum = 0, bad_sum = 0;
    for (const std::string& name : subset) {
      const sim::SimResult& r = p.runs(cfg, name);
      ipc_sum += r.ipc();
      bad_good_sum += r.bad_good_ratio();
      good_sum += good(r);
      bad_sum += bad(r);
    }
    t.add_row({v.label, sim::fmt(ipc_sum / n), sim::fmt(bad_good_sum / n),
               sim::fmt(good_sum, 0), sim::fmt(bad_sum, 0)});
  }
  t.print(p.os);
  p.os << "\nReading guide: 'recovery OFF' shows why the filter needs "
          "a correction path —\nwithout it rejected entries freeze and "
          "good prefetches stay filtered.\n";
}

// Extras 1 — prefetch taxonomy (Srinivasan et al. [17]): how much
// pollution hides inside the paper's two-way good/bad classification,
// and what the filter does to each of the four classes.
void taxonomy_study(const Page& p) {
  p.os << "1) Prefetch taxonomy under no filtering vs the PA filter\n\n";
  sim::Table t({"benchmark", "useful", "useful-pol", "polluting", "useless",
                "polluting (PA)", "useless (PA)"});
  for (const std::string& name : workload::benchmark_names()) {
    sim::SimConfig cfg = p.base;
    cfg.filter = "none";
    const sim::SimResult& r0 = p.runs(cfg, name);
    cfg.filter = "pa";
    const sim::SimResult& r1 = p.runs(cfg, name);
    t.add_row({name, sim::fmt_u64(r0.taxonomy.useful),
               sim::fmt_u64(r0.taxonomy.useful_polluting),
               sim::fmt_u64(r0.taxonomy.polluting),
               sim::fmt_u64(r0.taxonomy.useless),
               sim::fmt_u64(r1.taxonomy.polluting),
               sim::fmt_u64(r1.taxonomy.useless)});
  }
  t.print(p.os);
  p.os << "\nThe paper's 'bad' = polluting + useless; only the "
          "polluting part costs misses,\nwhich is why small caches "
          "(high live fraction) gain most from filtering.\n\n";
}

// Extras 2 — prefetcher zoo: the paper's NSP+SDP pair against the stride
// (RPT), stream-buffer and Markov prefetchers, each with and without the
// PC filter ("encompass several prefetching techniques altogether with
// dynamic filtering", per the paper's conclusion).
void prefetcher_zoo(const Page& p) {
  p.os << "2) Prefetcher zoo (mean IPC over all benchmarks, with and "
          "without the PC filter)\n\n";
  struct Variant {
    const char* label;
    bool nsp, sdp, stride, stream, markov;
  };
  const Variant variants[] = {
      {"none (no prefetching)", false, false, false, false, false},
      {"NSP + SDP (paper)", true, true, false, false, false},
      {"stride (RPT) only", false, false, true, false, false},
      {"stream buffers only", false, false, false, true, false},
      {"markov only", false, false, false, false, true},
      {"everything", true, true, true, true, true},
  };
  sim::Table t({"prefetchers", "IPC unfiltered", "IPC + PC filter",
                "bad frac unfiltered"});
  const auto& names = workload::benchmark_names();
  for (const Variant& v : variants) {
    double ipc0 = 0, ipc1 = 0, badfrac = 0;
    int bad_n = 0;
    for (const std::string& name : names) {
      sim::SimConfig cfg = p.base;
      cfg.set_prefetcher("nsp", v.nsp);
      cfg.set_prefetcher("sdp", v.sdp);
      cfg.set_prefetcher("stride", v.stride);
      cfg.set_prefetcher("stream_buffer", v.stream);
      cfg.set_prefetcher("markov", v.markov);
      cfg.enable_sw_prefetch = false;  // isolate the hardware engines
      cfg.filter = "none";
      const sim::SimResult& r0 = p.runs(cfg, name);
      cfg.filter = "pc";
      const sim::SimResult& r1 = p.runs(cfg, name);
      ipc0 += r0.ipc();
      ipc1 += r1.ipc();
      const std::uint64_t tot = r0.good_total() + r0.bad_total();
      if (tot > 0) {
        badfrac += static_cast<double>(r0.bad_total()) /
                   static_cast<double>(tot);
        ++bad_n;
      }
    }
    t.add_row({v.label, sim::fmt(ipc0 / names.size()),
               sim::fmt(ipc1 / names.size()),
               bad_n == 0 ? "-" : sim::fmt_pct(badfrac / bad_n)});
  }
  t.print(p.os);
  p.os << "\n";
}

// Extras 3 — the dead-block victim gate (Lai et al. [11]), the
// related-work alternative that polices the victim instead of the
// prefetch.
void deadblock_study(const Page& p) {
  p.os << "3) Dead-block victim gate [11] vs the paper's history-table "
          "filters (mean over all benchmarks)\n\n";
  sim::Table t({"scheme", "mean IPC", "mean bad/good", "rejection rate"});
  const auto& names = workload::benchmark_names();
  for (auto kind : {"none", "pa", "pc", "deadblock"}) {
    double ipc_sum = 0, bg = 0, rej = 0;
    for (const std::string& name : names) {
      sim::SimConfig cfg = p.base;
      cfg.filter = kind;
      const sim::SimResult& r = p.runs(cfg, name);
      ipc_sum += r.ipc();
      bg += r.bad_good_ratio();
      const std::uint64_t decisions = r.filter_admitted + r.filter_rejected;
      rej += decisions == 0 ? 0.0
                            : static_cast<double>(r.filter_rejected) /
                                  static_cast<double>(decisions);
    }
    t.add_row({kind, sim::fmt(ipc_sum / names.size()),
               sim::fmt(bg / names.size()),
               sim::fmt_pct(rej / names.size())});
  }
  t.print(p.os);
}

// Extras 4 — structural alternatives, prefetch-to-L2-only and a Jouppi
// victim cache, against the filter, plus their combinations.
void structural_study(const Page& p) {
  p.os << "\n4) Structural pollution control vs the PC filter "
          "(mean over all benchmarks)\n\n";
  struct Variant {
    const char* label;
    std::string filter;
    bool l2_only;
    std::size_t victim;
  };
  const Variant variants[] = {
      {"no control (baseline)", "none", false, 0},
      {"PC filter", "pc", false, 0},
      {"prefetch into L2 only", "none", true, 0},
      {"prefetch into L2 + PC filter", "pc", true, 0},
      {"victim cache (16)", "none", false, 16},
      {"victim cache + PC filter", "pc", false, 16},
  };
  sim::Table t({"scheme", "mean IPC", "mean L1D miss", "mean load lat"});
  const auto& names = workload::benchmark_names();
  for (const Variant& v : variants) {
    double ipc_sum = 0, miss = 0, lat = 0;
    for (const std::string& name : names) {
      sim::SimConfig cfg = p.base;
      cfg.filter = v.filter;
      cfg.prefetch_to_l2 = v.l2_only;
      cfg.victim_cache_entries = v.victim;
      const sim::SimResult& r = p.runs(cfg, name);
      ipc_sum += r.ipc();
      miss += r.l1d_miss_rate();
      lat += r.avg_load_latency;
    }
    t.add_row({v.label, sim::fmt(ipc_sum / names.size()),
               sim::fmt_pct(miss / names.size(), 2),
               sim::fmt(lat / names.size(), 1)});
  }
  t.print(p.os);
  p.os << "\n";
}

// Extras 5 — in-order sensitivity: the paper's intro motivates
// prefetching with static (in-order) machines; how much more does
// filtering matter when every miss stalls the pipe?
void inorder_study(const Page& p) {
  p.os << "5) In-order (static-machine) sensitivity: filter gains vs "
          "the OoO core\n\n";
  sim::Table t({"core", "IPC none", "IPC PC", "PC gain"});
  const auto& names = workload::benchmark_names();
  for (bool in_order : {false, true}) {
    double ipc0 = 0, ipc1 = 0;
    for (const std::string& name : names) {
      sim::SimConfig cfg = p.base;
      if (in_order) {
        cfg.core.width = 1;
        cfg.core.rob_entries = 1;
        cfg.core.lsq_entries = 1;
      }
      cfg.filter = "none";
      ipc0 += p.runs(cfg, name).ipc();
      cfg.filter = "pc";
      ipc1 += p.runs(cfg, name).ipc();
    }
    const double n = names.size();
    t.add_row({in_order ? "in-order (width 1, blocking)" : "8-wide OoO",
               sim::fmt(ipc0 / n), sim::fmt(ipc1 / n),
               sim::fmt_pct(ipc1 / ipc0 - 1.0)});
  }
  t.print(p.os);
}

// Extras — five studies beyond the paper's figures under one banner.
void extras(Page p) {
  taxonomy_study(p);
  prefetcher_zoo(p);
  deadblock_study(p);
  structural_study(p);
  inorder_study(p);
}

// Energy — the paper's motivation that ineffective prefetches cause
// "performance loss and unnecessary energy consumption", made
// quantitative with the event-based memory-system energy model: energy
// without filtering, with the PA and PC filters, and the PC filter's
// energy-delay product. Expected shape: filters cut DRAM/bus energy
// (fewer useless fetches) for a roughly flat cycle count, so energy and
// EDP drop wherever bad prefetches were plentiful.
void energy(Page p) {
  sim::Table t({"benchmark", "uJ none", "uJ PA", "uJ PC", "PA saving",
                "PC saving", "EDP change (PC)"});
  double save_pa = 0, save_pc = 0;
  const auto& names = workload::benchmark_names();
  for (const std::string& name : names) {
    const sim::ScenarioResults r = scenarios(p, name);
    const double e0 = r.none.energy.total_nj() / 1000.0;
    const double ea = r.pa.energy.total_nj() / 1000.0;
    const double ec = r.pc.energy.total_nj() / 1000.0;
    const double spa = 1.0 - ea / e0;
    const double spc = 1.0 - ec / e0;
    save_pa += spa;
    save_pc += spc;
    t.add_row({name, sim::fmt(e0, 1), sim::fmt(ea, 1), sim::fmt(ec, 1),
               sim::fmt_pct(spa), sim::fmt_pct(spc),
               sim::fmt_pct(r.pc.edp() / r.none.edp() - 1.0)});
  }
  t.print(p.os);
  p.os << strf("\nmean memory-system energy saving: PA %.1f%%  PC %.1f%%\n",
               100 * save_pa / names.size(), 100 * save_pc / names.size());

  // Where the saving comes from: the component breakdown for the most
  // prefetch-polluted benchmark.
  p.os << "\ncomponent breakdown for em3d (nJ):\n";
  sim::Table b({"component", "none", "PC filter"});
  const sim::ScenarioResults em = scenarios(p, "em3d");
  b.add_row({"L1 arrays", sim::fmt(em.none.energy.l1_nj, 0),
             sim::fmt(em.pc.energy.l1_nj, 0)});
  b.add_row({"L2 arrays", sim::fmt(em.none.energy.l2_nj, 0),
             sim::fmt(em.pc.energy.l2_nj, 0)});
  b.add_row({"DRAM", sim::fmt(em.none.energy.dram_nj, 0),
             sim::fmt(em.pc.energy.dram_nj, 0)});
  b.add_row({"bus", sim::fmt(em.none.energy.bus_nj, 0),
             sim::fmt(em.pc.energy.bus_nj, 0)});
  b.add_row({"history table", sim::fmt(em.none.energy.table_nj, 0),
             sim::fmt(em.pc.energy.table_nj, 0)});
  b.print(p.os);
}

/// Programs `a` and `b` (workload seeds `seed` and `seed + 1`), switching
/// every `interval` instructions.
std::unique_ptr<workload::InterleavedTrace> mix(const std::string& a,
                                                const std::string& b,
                                                std::uint64_t interval,
                                                std::uint64_t seed) {
  std::vector<std::unique_ptr<workload::TraceSource>> sources;
  sources.push_back(workload::make_benchmark(a, seed));
  sources.push_back(workload::make_benchmark(b, seed + 1));
  return std::make_unique<workload::InterleavedTrace>(std::move(sources),
                                                      interval);
}

// Phases — working-set phase changes, the dynamic-vs-static argument.
// The paper's case against the profile-based static filter [18] is that
// "it lacks the dynamic adaptivity during runtime when the working set
// changes". Each row is a multiprogrammed trace that context-switches
// between two benchmarks with different prefetch behaviour. The static
// filter is profiled on the first program alone (profile one input, meet
// another at runtime); the dynamic filters relearn at each switch. These
// mixes are not benchmark traces, so this printer simulates them itself,
// in the printing pass only.
void phases(Page p) {
  if (p.runs.collecting()) return;
  const std::pair<const char*, const char*> pairs[] = {
      {"em3d", "gzip"}, {"mcf", "wave5"}, {"gcc", "fpppp"}};
  const std::uint64_t interval = 100'000;  // instructions per time slice

  sim::Table t({"workload mix", "IPC none", "IPC static(profiled A)",
                "IPC PA", "IPC PC", "bad kept: static", "bad kept: pa"});
  for (const auto& [a, b] : pairs) {
    const auto run_mix = [&](const char* filter) {
      sim::SimConfig cfg = p.base;
      cfg.filter = filter;
      return sim::Simulator(cfg).run(*mix(a, b, interval, cfg.seed));
    };
    const sim::SimResult none = run_mix("none");
    const sim::SimResult pa = run_mix("pa");
    const sim::SimResult pc = run_mix("pc");
    // Static filter: profile program A alone, freeze, deploy on the mix.
    const sim::SimResult stat = sim::run_static_filter(
        p.base, *workload::make_benchmark(a, p.base.seed),
        *mix(a, b, interval, p.base.seed));

    auto kept = [&](const sim::SimResult& r) {
      return none.bad_total() == 0
                 ? 0.0
                 : static_cast<double>(r.bad_total()) /
                       static_cast<double>(none.bad_total());
    };
    t.add_row({std::string(a) + "+" + b, sim::fmt(none.ipc()),
               sim::fmt(stat.ipc()), sim::fmt(pa.ipc()), sim::fmt(pc.ipc()),
               sim::fmt_pct(kept(stat)), sim::fmt_pct(kept(pa))});
  }
  t.print(p.os);
  p.os << "\nShape check (paper, Related Work): the frozen profile "
          "cannot police program B's\nprefetches at all, while the "
          "dynamic filters keep filtering across switches.\n";
}

/// "mean ± sample standard deviation" of two or more samples.
std::string mean_pm(const std::vector<double>& xs) {
  double sum = 0;
  for (double x : xs) sum += x;
  const double m = sum / static_cast<double>(xs.size());
  double sq = 0;
  for (double x : xs) sq += (x - m) * (x - m);
  return sim::fmt(m, 3) + " ± " +
         sim::fmt(std::sqrt(sq / (xs.size() - 1)), 3);
}

// Seeds — the headline metrics across independent workload seeds,
// reported as mean ± stddev. Guards every conclusion in EXPERIMENTS.md
// against being an artifact of one particular synthetic trace instance.
void seeds(Page p) {
  std::vector<double> bad_frac, pa_bad_removed, pc_good_kept,
      pc_ipc_gain_em3d, energy_saving;
  for (std::uint64_t seed : {42, 1001, 2002, 3003, 4004}) {
    // The seed sets both the workload and the core's sampling seed.
    p.base.seed = seed;
    p.base.core.seed = seed;
    // The bad fraction over the benchmarks with any prefetches.
    sim::SimConfig cfg = p.base;
    cfg.filter = "none";
    double bf = 0;
    int n = 0;
    for (const std::string& name : workload::benchmark_names()) {
      const sim::SimResult& r = p.runs(cfg, name);
      const double tot = static_cast<double>(r.good_total() + r.bad_total());
      if (tot > 0) {
        bf += r.bad_total() / tot;
        n += 1;
      }
    }
    bad_frac.push_back(bf / n);

    const sim::ScenarioResults em = scenarios(p, "em3d");
    pa_bad_removed.push_back(
        1.0 - static_cast<double>(em.pa.bad_total()) /
                  static_cast<double>(em.none.bad_total()));
    pc_good_kept.push_back(static_cast<double>(em.pc.good_total()) /
                              static_cast<double>(em.none.good_total()));
    pc_ipc_gain_em3d.push_back(em.pc.ipc() / em.none.ipc() - 1.0);
    energy_saving.push_back(1.0 - em.pc.energy.total_nj() /
                                         em.none.energy.total_nj());
  }
  sim::Table t({"metric", "mean ± stddev over seeds"});
  t.add_row({"mean bad fraction (no filter, 10 benchmarks)",
             mean_pm(bad_frac)});
  t.add_row({"em3d: bad removed by PA", mean_pm(pa_bad_removed)});
  t.add_row({"em3d: good kept by PC", mean_pm(pc_good_kept)});
  t.add_row({"em3d: PC IPC gain", mean_pm(pc_ipc_gain_em3d)});
  t.add_row({"em3d: PC energy saving", mean_pm(energy_saving)});
  t.print(p.os);
  p.os << "\nAll headline shapes should hold with small spread; a "
          "large stddev flags a\nconclusion that leans on one "
          "particular trace instance.\n";
}

// Sensitivity — the filter's value against machine parameters the paper
// holds fixed: mean IPC without filtering and the PC filter's relative
// gain. The shapes under test: longer lines make each bad prefetch
// displace more and cost more bandwidth, so the gain would grow with line
// size; higher DRAM latency raises the price of every useless fetch; a
// set-associative L1 absorbs conflict pollution, so the paper's
// direct-mapped L1 would be the filter's best case. EXPERIMENTS.md
// records which of them hold.
void sensitivity(Page p) {
  const auto& names = workload::benchmark_names();
  const auto group = [&](const char* title, const Columns& cols) {
    p.os << title << "\n";
    sim::Table t({"variant", "IPC none", "IPC PC", "PC gain"});
    for (const runlab::ConfigVariant& col : cols) {
      sim::SimConfig cfg = p.base;
      col.apply(cfg);
      double ipc_none = 0, ipc_pc = 0;
      for (const std::string& name : names) {
        cfg.filter = "none";
        ipc_none += p.runs(cfg, name).ipc();
        cfg.filter = "pc";
        ipc_pc += p.runs(cfg, name).ipc();
      }
      ipc_none /= static_cast<double>(names.size());
      ipc_pc /= static_cast<double>(names.size());
      t.add_row({col.label, sim::fmt(ipc_none), sim::fmt(ipc_pc),
                 sim::fmt_pct(ipc_pc / ipc_none - 1.0)});
    }
    t.print(p.os);
    p.os << "\n";
  };

  Columns line, memory, assoc;
  for (std::uint32_t lb : {16u, 32u, 64u}) {
    line.push_back({std::to_string(lb) + "B", [lb](sim::SimConfig& c) {
                      c.l1d.line_bytes = lb;
                      c.l1i.line_bytes = lb;
                      c.l2.line_bytes = lb;
                      c.core.ifetch_line_bytes = lb;
                    }});
  }
  for (Cycle lat : {75u, 150u, 300u}) {
    memory.push_back({std::to_string(lat) + "cy",
                      [lat](sim::SimConfig& c) { c.dram.latency = lat; }});
  }
  for (std::uint32_t ways : {1u, 2u, 4u}) {
    assoc.push_back(
        {ways == 1 ? "direct-mapped" : std::to_string(ways) + "-way",
         [ways](sim::SimConfig& c) { c.l1d.associativity = ways; }});
  }
  group("line size (L1+L2, fixed 8KB/512KB capacities):", line);
  group("main-memory latency (paper: 150 cycles):", memory);
  group("L1 associativity (paper: direct-mapped):", assoc);
}

// Models — timing-model cross-check: the occupancy core (statistical
// dependences, the calibrated default) against the register-dataflow core
// (true dependences from the trace's architectural registers). Read off
// (1) whether the filter's IPC delta keeps its sign under both cores on
// the pollution-bound benchmarks, and (2) where the models diverge
// (pointer chases: occupancy serialises all chase streams through one
// chain, dataflow separates them per pointer register).
void models(Page p) {
  sim::Table t({"benchmark", "occ IPC", "df IPC", "occ PC-gain",
                "df PC-gain"});
  double occ_gain = 0, df_gain = 0;
  const auto& names = workload::benchmark_names();
  for (const std::string& name : names) {
    double ipcs[2][2];  // [model][filter]
    for (int m = 0; m < 2; ++m) {
      sim::SimConfig cfg = p.base;
      cfg.core_model =
          m == 0 ? sim::CoreModel::Occupancy : sim::CoreModel::Dataflow;
      cfg.filter = "none";
      ipcs[m][0] = p.runs(cfg, name).ipc();
      cfg.filter = "pc";
      ipcs[m][1] = p.runs(cfg, name).ipc();
    }
    const double g_occ = ipcs[0][1] / ipcs[0][0] - 1.0;
    const double g_df = ipcs[1][1] / ipcs[1][0] - 1.0;
    occ_gain += g_occ;
    df_gain += g_df;
    t.add_row({name, sim::fmt(ipcs[0][0]), sim::fmt(ipcs[1][0]),
               sim::fmt_pct(g_occ), sim::fmt_pct(g_df)});
  }
  t.print(p.os);
  p.os << strf(
      "\nmean PC-filter IPC gain: occupancy %+.1f%%, dataflow %+.1f%%\n",
      100 * occ_gain / names.size(), 100 * df_gain / names.size());
}

/// The paper's evaluation in its order, then the studies beyond it. A new
/// experiment is one row.
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
      {"ablation", "Ablation",
       "filter design choices (PA filter, 5-benchmark subset)", ablation},
      {"extras", "Extras",
       "taxonomy, prefetcher zoo, dead-block gate, structural, in-order",
       extras},
      {"energy", "Energy",
       "memory-system energy: no filter vs PA vs PC (uJ, scaled runs)",
       energy},
      {"phases", "Phases",
       "context-switched workloads: dynamic filters vs a frozen profile",
       phases},
      {"seeds", "Seeds", "headline metrics across 5 workload seeds", seeds},
      {"sensitivity", "Sensitivity",
       "filter value vs line size, memory latency, L1 associativity",
       sensitivity},
      {"models", "Models", "occupancy vs dataflow timing model", models},
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
