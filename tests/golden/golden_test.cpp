// Golden result corpus: pins the simulator's results byte for byte.
//
// Every non-comment line of tests/golden/corpus.txt is a ppf_sim-style
// key=value config followed by the 16-hex diff::digest_hex of the run's
// diff::result_signature. A line carrying sample_interval=N runs with
// observation on (events captured, a time-series row every N cycles), so
// its digest also pins the obs aggregates: the core.stage.* counters and
// the event stream. filter=static lines run the two-phase
// profile-then-measure flow, as runlab (ppf_batch, bench_tournament) does.
//
// Each line runs twice and must give its pinned digest both times:
//   1. cold: runlab::execute_job, i.e. Simulator::run over the streaming
//      generator (stream-mode decode);
//   2. the whole corpus once through runlab::run_jobs with one shared
//      ExecCache: arena decode, in-place warmup, and a warmup snapshot
//      cloned into every pair of lines that shares a warmup.
//
// On a mismatch the test names each failing config (paste it into
// ppf_sim to reproduce) and the recomputed corpus written next to this
// binary. After an intended behaviour change, re-pin by copying that file
// over tests/golden/corpus.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "diff/signature.hpp"
#include "runlab/exec_cache.hpp"
#include "runlab/runner.hpp"
#include "sim/config_apply.hpp"

namespace ppf {
namespace {

struct Entry {
  std::size_t line = 0;  ///< index into Corpus::lines
  std::string config;
  std::string pinned;
};

struct Corpus {
  std::vector<std::string> lines;  ///< the file, comments included
  std::vector<Entry> entries;
};

Corpus read_corpus(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  Corpus c;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      const std::size_t sp = line.rfind(' ');
      EXPECT_NE(sp, std::string::npos) << "malformed corpus line: " << line;
      if (sp != std::string::npos) {
        c.entries.push_back(
            Entry{c.lines.size(), line.substr(0, sp), line.substr(sp + 1)});
      }
    }
    c.lines.push_back(line);
  }
  return c;
}

/// The job a corpus config describes, on the paper-default machine.
runlab::Job parse_job(const std::string& config, std::size_t index) {
  std::istringstream in(config);
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(t);
  std::vector<const char*> argv = {"golden"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  const ParamMap params =
      ParamMap::from_args(static_cast<int>(argv.size()), argv.data());

  ParamMap machine;
  for (const auto& [key, value] : params.entries()) {
    if (key != "bench" && key != "sample_interval") machine.set(key, value);
  }
  runlab::Job job;
  job.index = index;
  job.benchmark = params.get_string("bench", "");
  job.config = sim::SimConfig::paper_default();
  sim::apply_overrides(job.config, machine);
  if (params.has("sample_interval")) {
    job.config.obs.enabled = true;
    job.config.obs.sample_interval = params.get_u64("sample_interval", 0);
  }
  job.filter_name = job.config.filter;
  job.seed = job.config.seed;
  return job;
}

TEST(GoldenCorpus, ColdAndRunlabPathsMatchThePinnedDigests) {
  Corpus corpus = read_corpus(PPF_GOLDEN_CORPUS);
  ASSERT_FALSE(corpus.entries.empty());

  std::vector<runlab::Job> jobs;
  for (const Entry& e : corpus.entries) {
    ASSERT_NO_THROW(jobs.push_back(parse_job(e.config, jobs.size())))
        << "unparsable corpus config: " << e.config;
  }

  std::size_t cold_failures = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Entry& e = corpus.entries[i];
    const std::string got =
        diff::digest_hex(diff::result_signature(runlab::execute_job(jobs[i])));
    if (got != e.pinned) {
      ++cold_failures;
      ADD_FAILURE() << "cold path: ppf_sim " << e.config << "\n  digest "
                    << got << ", pinned " << e.pinned;
    }
    corpus.lines[e.line] = e.config + ' ' + got;
  }

  const std::string recomputed = PPF_GOLDEN_RECOMPUTED;
  {
    std::ofstream out(recomputed);
    for (const std::string& line : corpus.lines) out << line << '\n';
  }
  if (cold_failures > 0) {
    ADD_FAILURE() << cold_failures << " of " << jobs.size()
                  << " corpus lines changed on the cold path; the "
                     "recomputed corpus is "
                  << recomputed << " (diff it against " << PPF_GOLDEN_CORPUS
                  << ")";
  }

  runlab::ExecCache cache;
  runlab::RunOptions opts;
  opts.workers = 2;
  opts.cache = &cache;
  const runlab::RunReport rep = runlab::run_jobs(jobs, opts);
  ASSERT_EQ(rep.results.size(), corpus.entries.size());
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const runlab::JobResult& r = rep.results[i];
    const Entry& e = corpus.entries[i];
    if (!r.ok) {
      ADD_FAILURE() << "runlab path: ppf_sim " << e.config << "\n  "
                    << r.error;
      continue;
    }
    const std::string got =
        diff::digest_hex(diff::result_signature(r.result));
    if (got != e.pinned) {
      ADD_FAILURE() << "runlab path: ppf_sim " << e.config << "\n  digest "
                    << got << ", pinned " << e.pinned;
    }
  }
  // The corpus pairs lines by warmup, so the shared cache must have
  // resumed at least one job from a snapshot.
  EXPECT_GT(cache.stats().snapshot_resumes, 0u);
}

}  // namespace
}  // namespace ppf
