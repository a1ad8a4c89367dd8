#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "diff/signature.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "sim/config_apply.hpp"
#include "sim/report.hpp"
#include "workload/benchmarks.hpp"

namespace ppf::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::microseconds>(b - a);
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

runlab::ExecCacheConfig cache_config(const ServiceConfig& cfg,
                                     obs::Profiler* prof) {
  runlab::ExecCacheConfig cc;
  cc.trace_budget_bytes = cfg.trace_cache_mb << 20;
  cc.snapshot_budget_bytes = cfg.snapshot_cache_mb << 20;
  cc.profiler = prof;
  return cc;
}

/// Clamp a wall-clock duration into a span's 32-bit microsecond field.
std::uint32_t clamp_dur(std::uint64_t us) {
  return us > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(us);
}

}  // namespace

Service::Service(const ServiceConfig& cfg)
    : cfg_(cfg),
      prof_(cfg.prof ? std::make_unique<obs::Profiler>() : nullptr),
      flight_(cfg.flight_recorder > 0 ? std::make_unique<obs::FlightRecorder>(
                                            cfg.flight_recorder)
                                      : nullptr),
      cache_(cache_config(cfg, prof_.get())),
      epoch_(Clock::now()),
      // 100 us buckets over a 2 s range: request latencies on this
      // service are dominated by simulation time (ms to low seconds for
      // CLI-scale windows); beyond-range samples land in the overflow
      // bucket with an exact max.
      latency_us_(100, 20'000),
      miss_latency_us_(100, 20'000) {
  register_metrics();
  std::size_t n = cfg_.workers;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Service::register_metrics() {
  const auto counter = [this](const char* name,
                              const std::atomic<std::uint64_t>* v) {
    registry_.add_counter(name, [v] {
      return v->load(std::memory_order_relaxed);
    });
  };
  counter("serve.requests", &requests_);
  counter("serve.admitted", &admitted_);
  counter("serve.rejected_queue_full", &rejected_full_);
  counter("serve.rejected_shutting_down", &rejected_draining_);
  counter("serve.bad_requests", &bad_requests_);
  counter("serve.bad_configs", &bad_configs_);
  counter("serve.run_errors", &run_errors_);
  registry_.add_counter("serve.memo_hits",
                        [this] { return memo_.stats().hits; });
  registry_.add_counter("serve.memo_misses",
                        [this] { return memo_.stats().misses; });
  registry_.add_counter("serve.memo_inserts",
                        [this] { return memo_.stats().inserts; });
  registry_.add_counter("serve.trace_builds",
                        [this] { return cache_.stats().trace_builds; });
  registry_.add_counter("serve.trace_hits",
                        [this] { return cache_.stats().trace_hits; });
  registry_.add_counter("serve.trace_evictions",
                        [this] { return cache_.stats().trace_evictions; });
  registry_.add_counter("serve.snapshot_builds",
                        [this] { return cache_.stats().snapshot_builds; });
  registry_.add_counter("serve.snapshot_hits",
                        [this] { return cache_.stats().snapshot_hits; });
  registry_.add_counter("serve.snapshot_evictions",
                        [this] { return cache_.stats().snapshot_evictions; });
  registry_.add_counter("serve.snapshot_resumes",
                        [this] { return cache_.stats().snapshot_resumes; });
  registry_.add_gauge("serve.queue_depth", [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(queue_.size());
  });
  registry_.add_gauge("serve.inflight", [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(inflight_);
  });
  registry_.add_gauge("serve.memo_bytes", [this] {
    return static_cast<double>(memo_.stats().bytes);
  });
  registry_.add_gauge("serve.memo_entries", [this] {
    return static_cast<double>(memo_.stats().entries);
  });
  registry_.add_gauge("serve.trace_bytes", [this] {
    return static_cast<double>(cache_.stats().trace_bytes);
  });
  registry_.add_gauge("serve.snapshot_bytes", [this] {
    return static_cast<double>(cache_.stats().snapshot_bytes);
  });
  // Ctor-only: this registers *pointers* before the workers start, and
  // every later read goes through metrics_snapshot(), under hist_mu_.
  // ppf:lock-ok(ctor-only pointer registration; reads hold hist_mu_)
  registry_.add_histogram("serve.latency_us", &latency_us_);
  // ppf:lock-ok(same: ctor-only pointer registration)
  registry_.add_histogram("serve.miss_latency_us", &miss_latency_us_);
}

runlab::Job Service::make_job(const std::string& config) const {
  ParamMap params;
  std::istringstream tokens(config);
  std::string tok;
  while (tokens >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("config token '" + tok +
                                  "' is not key=value");
    }
    params.set(tok.substr(0, eq), tok.substr(eq + 1));
  }
  // bench is the one driver key; everything else must be a machine
  // override, parsed against its config_schema() domain.
  const std::string bench = params.get_string("bench", "");
  if (bench.empty()) {
    throw std::invalid_argument("config must name bench=");
  }
  // The name check builds no trace: a bad name costs no generator.
  (void)workload::parse_benchmark_name(bench);

  runlab::Job job;
  job.benchmark = bench;
  job.config = sim::SimConfig::paper_default();
  job.config.max_instructions = cfg_.default_instructions;
  static const std::vector<std::string> driver_keys = {"bench"};
  sim::apply_overrides(job.config, params, driver_keys);
  job.filter_name = job.config.filter;
  job.seed = job.config.seed;
  return job;
}

std::uint64_t Service::now_us() const {
  return us_between(epoch_, Clock::now());
}

Service::ConnectionLog* Service::open_connection() {
  if (cfg_.span_buffer == 0) return nullptr;
  std::lock_guard<std::mutex> lk(conns_mu_);
  const auto id = static_cast<std::uint32_t>(conns_.size() + 1);
  conns_.emplace_back(id, cfg_.span_buffer);
  return &conns_.back();
}

void Service::publish_span(ConnectionLog* conn, const obs::Span& s) {
  if (conn != nullptr) conn->spans.record(s);
  if (flight_) flight_->note_span(conn != nullptr ? conn->id : 0, s);
}

std::vector<obs::ConnectionSpans> Service::span_dump() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  std::vector<obs::ConnectionSpans> out;
  out.reserve(conns_.size());
  for (const ConnectionLog& c : conns_) {
    obs::ConnectionSpans cs;
    cs.conn = c.id;
    cs.spans = c.spans.snapshot();
    cs.dropped = c.spans.dropped();
    out.push_back(std::move(cs));
  }
  return out;
}

Handled Service::handle(const Request& req, ConnectionLog* conn) {
  PPF_PROF_SCOPE(prof_.get(), obs::ProfScopeId::ServeHandle);
  requests_.fetch_add(1, std::memory_order_relaxed);
  Handled out;
  if (req.verb == "run") {
    out.response = handle_run(req, conn);
  } else if (req.verb == "ping") {
    out.response = pong_response(req.id);
  } else if (req.verb == "stats") {
    out.response = stats_response(req.id);
  } else if (req.verb == "metrics") {
    out.response = metrics_response(req.id);
  } else if (req.verb == "dump") {
    out.response = dump_response(req.id);
  } else if (req.verb == "shutdown") {
    begin_shutdown();
    std::ostringstream os;
    os << "{\"op\":\"bye\",\"id\":" << req.id << "}";
    out.response = os.str();
    out.shutdown = true;
  } else {
    out.response = error_response(req.id, "unknown_verb",
                                  "no verb named \"" + req.verb + "\"");
  }
  return out;
}

std::string Service::handle_run(const Request& req, ConnectionLog* conn) {
  const Clock::time_point t0 = Clock::now();
  const auto cfg_it = req.fields.find("config");
  if (cfg_it == req.fields.end()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, "bad_request",
                          "run requires a \"config\" field");
  }

  runlab::Job job;
  try {
    job = make_job(cfg_it->second);
  } catch (const std::exception& e) {
    bad_configs_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, "bad_config", e.what());
  }
  const std::string signature =
      diff::config_signature(job.config, job.benchmark);

  const auto record_latency = [&](bool miss) {
    const std::uint64_t us = us_between(t0, Clock::now());
    std::lock_guard<std::mutex> lk(hist_mu_);
    latency_us_.record(us);
    if (miss) miss_latency_us_.record(us);
  };

  // Span plumbing. Everything here is wall-clock telemetry: the spans
  // never touch the response bytes, the memo, or the signature.
  const bool want_spans = conn != nullptr || flight_ != nullptr;
  const std::uint64_t req_start_us = want_spans ? now_us() : 0;
  const auto span = [&](obs::SpanName name, std::uint64_t start,
                        std::uint64_t end, std::uint8_t depth) {
    obs::Span s;
    s.request = req.id;
    s.name = name;
    s.start_us = start;
    s.dur_us = clamp_dur(end > start ? end - start : 0);
    s.depth = depth;
    publish_span(conn, s);
  };

  std::string body;
  bool memo_hit = false;
  const std::uint64_t lookup_start_us = want_spans ? now_us() : 0;
  {
    PPF_PROF_SCOPE(prof_.get(), obs::ProfScopeId::ServeMemoLookup);
    memo_hit = cfg_.memo && memo_.lookup(signature, body);
  }
  const std::uint64_t lookup_end_us = want_spans ? now_us() : 0;
  if (memo_hit) {
    const std::uint64_t ser_start_us = want_spans ? now_us() : 0;
    std::string response;
    {
      PPF_PROF_SCOPE(prof_.get(), obs::ProfScopeId::ServeSerialize);
      response = result_response(req.id, true, body);
    }
    record_latency(false);
    if (want_spans) {
      const std::uint64_t end_us = now_us();
      span(obs::SpanName::Request, req_start_us, end_us, 0);
      span(obs::SpanName::MemoLookup, lookup_start_us, lookup_end_us, 1);
      span(obs::SpanName::Serialize, ser_start_us, end_us, 1);
    }
    return response;
  }

  auto task = std::make_shared<Task>();
  task->job = std::move(job);
  task->signature = signature;
  std::future<std::string> fut = task->body.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      return error_response(req.id, "shutting_down",
                            "daemon is draining; no new work accepted");
    }
    if (queue_.size() + inflight_ >= cfg_.queue_depth) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return error_response(req.id, "queue_full",
                            "admission queue at capacity (" +
                                std::to_string(cfg_.queue_depth) + ")");
    }
    task->enqueue_us = now_us();
    queue_.push_back(task);
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();

  try {
    body = fut.get();
  } catch (const std::exception& e) {
    run_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, "internal", e.what());
  }
  if (cfg_.memo) memo_.insert(signature, body);
  const std::uint64_t ser_start_us = want_spans ? now_us() : 0;
  std::string response;
  {
    PPF_PROF_SCOPE(prof_.get(), obs::ProfScopeId::ServeSerialize);
    response = result_response(req.id, false, body);
  }
  record_latency(true);
  if (want_spans) {
    // The worker stamped the task's timing fields before set_value, so
    // the future's happens-before makes them safe to read here.
    const std::uint64_t end_us = now_us();
    span(obs::SpanName::Request, req_start_us, end_us, 0);
    span(obs::SpanName::MemoLookup, lookup_start_us, lookup_end_us, 1);
    span(obs::SpanName::QueueWait, task->enqueue_us, task->exec_start_us, 1);
    span(obs::SpanName::Execute, task->exec_start_us, task->exec_end_us, 1);
    // Inside Execute: the cache probe, then the per-stage kernel time
    // from the engine's stage accounting, laid out sequentially (the
    // stage totals are sampled wall-clock sums, not intervals).
    std::uint64_t cursor_us =
        task->exec_start_us +
        static_cast<std::uint64_t>(task->timings.probe_ms * 1000.0);
    if (task->timings.probe_ms > 0.0) {
      span(obs::SpanName::CacheProbe, task->exec_start_us, cursor_us, 2);
    }
    const std::pair<obs::SpanName, double> stages[] = {
        {obs::SpanName::StageFetch, task->stages.fetch_ns},
        {obs::SpanName::StageProbe, task->stages.probe_ns},
        {obs::SpanName::StageRetire, task->stages.retire_ns},
        {obs::SpanName::StageMemsys, task->stages.memsys_ns},
    };
    for (const auto& [name, ns] : stages) {
      const auto dur = static_cast<std::uint64_t>(ns / 1000.0);
      if (dur == 0) continue;
      span(name, cursor_us, cursor_us + dur, 2);
      cursor_us += dur;
    }
    span(obs::SpanName::Serialize, ser_start_us, end_us, 1);
  }
  return response;
}

obs::MetricsSnapshot Service::metrics_snapshot() const {
  // Counters are registered with an all-zero baseline (the daemon's
  // lifetime IS the measurement window). hist_mu_ serializes the
  // histogram summaries against concurrent record() calls.
  obs::MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lk(hist_mu_);
    snap = registry_.snapshot({});
  }
  // The profiler keeps its own lock, so its histograms are appended
  // outside hist_mu_ (no lock-order coupling between the two).
  if (prof_) prof_->append_snapshot(snap);
  return snap;
}

std::string Service::metrics_response(std::uint64_t id) const {
  std::ostringstream text;
  obs::write_prometheus(text, metrics_snapshot());
  std::ostringstream os;
  os << "{\"op\":\"metrics\",\"id\":" << id
     << ",\"content_type\":\"text/plain; version=0.0.4\",\"body\":";
  runlab::write_json_string(os, text.str());
  os << "}";
  return os.str();
}

std::string Service::dump_response(std::uint64_t id) const {
  if (!flight_) {
    return error_response(id, "flight_disabled",
                          "flight recorder is off (flight_recorder=0)");
  }
  std::ostringstream os;
  os << "{\"op\":\"dump\",\"id\":" << id
     << ",\"spans\":" << flight_->spans_seen()
     << ",\"notes\":" << flight_->notes_seen() << ",\"body\":";
  runlab::write_json_string(os, flight_->dump_string());
  os << "}";
  return os.str();
}

std::string Service::stats_response(std::uint64_t id) const {
  const obs::MetricsSnapshot snap = metrics_snapshot();
  std::ostringstream os;
  os << "{\"op\":\"stats\",\"id\":" << id << ",\"workers\":" << threads_.size()
     << ",\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << snap.counters[i].first << "\":" << snap.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << snap.gauges[i].first
       << "\":" << sim::fmt(snap.gauges[i].second, 3);
  }
  os << "},\"histograms\":[";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const obs::HistogramSnapshot& h = snap.histograms[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << h.name << "\",\"count\":" << h.count
       << ",\"mean\":" << sim::fmt(h.mean, 3)
       << ",\"p50\":" << sim::fmt(h.p50, 3)
       << ",\"p95\":" << sim::fmt(h.p95, 3)
       << ",\"p99\":" << sim::fmt(h.p99, 3)
       << ",\"p999\":" << sim::fmt(h.p999, 3) << ",\"max\":" << h.max << "}";
  }
  os << "]}";
  return os.str();
}

void Service::note_bad_request() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
}

void Service::begin_shutdown() {
  draining_.store(true, std::memory_order_release);
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return queue_.empty() && inflight_ == 0; });
}

void Service::worker_loop() {
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ with an empty queue: every admitted request has been
        // answered — safe to exit.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }
    try {
      task->exec_start_us = now_us();
      const sim::SimResult result = cache_.execute(task->job, &task->timings);
      task->exec_end_us = now_us();
      task->stages = result.core.stages;
      std::ostringstream os;
      os << "\"ok\":true,\"metrics\":";
      runlab::write_metrics_json(os, result);
      os << "}";
      task->body.set_value(os.str());
    } catch (const check::CheckViolation& e) {
      // A tripped simulator invariant is exactly what the flight
      // recorder exists for: note it and dump the recent spans before
      // answering the client through the usual error convention.
      if (flight_) {
        flight_->note(now_us(), "check_violation",
                      runlab::job_repro(task->job) + ": " + e.what());
        std::ofstream out(cfg_.flight_out, std::ios::trunc);
        if (out) flight_->dump(out);  // best effort
      }
      task->body.set_exception(std::make_exception_ptr(std::runtime_error(
          runlab::job_repro(task->job) + ": " + e.what())));
    } catch (const std::exception& e) {
      // Same convention as runlab failure records: lead with the job
      // identity so an error response is reproducible on its own.
      task->body.set_exception(std::make_exception_ptr(std::runtime_error(
          runlab::job_repro(task->job) + ": " + e.what())));
    } catch (...) {
      task->body.set_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;
    }
    drain_cv_.notify_all();
  }
}

}  // namespace ppf::serve
