// The two serving workloads: an in-process Service + Server (the daemon
// ppf_serve runs) driven over real TCP sockets by the harness's own
// closed-loop clients, which keep every raw latency sample.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/shutdown.hpp"
#include "harness.hpp"
#include "runlab/runner.hpp"
#include "runlab/sinks.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace ppf::bench {

namespace {

/// Request ids below this are priming requests; spans of measured
/// requests are told apart by it.
constexpr std::uint64_t kFirstMeasuredId = 1'000'000;

/// Blocking line-oriented client for the daemon's protocol.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed: " + why);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send `data` (one or more '\n'-terminated lines) in full.
  bool send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line, without the terminator.
  bool recv(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One in-process daemon: a Service, its Server, and the accept loop on
/// a thread. Destruction shuts it down and joins every thread.
class Daemon {
 public:
  explicit Daemon(const serve::ServiceConfig& cfg)
      : service_(cfg), server_(service_, {}), thread_([this] {
          try {
            server_.serve(shutdown_);
          } catch (const std::exception& e) {
            std::cerr << "ppf_benchmark: daemon: " << e.what() << '\n';
          }
        }) {}
  ~Daemon() {
    shutdown_.request();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] serve::Service& service() { return service_; }

 private:
  ShutdownRequest shutdown_;
  serve::Service service_;
  serve::Server server_;
  std::thread thread_;  // last: it uses every member above
};

/// One request of a closed loop and the response prefix it must get.
struct Call {
  std::string line;    ///< request line, '\n'-terminated
  std::string prefix;  ///< {"op":"result","id":N,"cached":C,
  std::size_t config = 0;
};

std::vector<Call> make_calls(const std::vector<std::string>& configs,
                             std::size_t n, std::uint64_t first_id,
                             bool cached) {
  std::vector<Call> calls(n);
  for (std::size_t i = 0; i < n; ++i) {
    Call& c = calls[i];
    const std::uint64_t id = first_id + i;
    c.config = i % configs.size();
    std::ostringstream line;
    line << "{\"op\":\"run\",\"id\":" << id << ",\"config\":";
    runlab::write_json_string(line, configs[c.config]);
    line << "}\n";
    c.line = line.str();
    c.prefix = "{\"op\":\"result\",\"id\":" + std::to_string(id) +
               ",\"cached\":" + (cached ? "1," : "0,");
  }
  return calls;
}

/// Outcome of one pass over a call list.
struct Loop {
  double wall_s = 0;
  std::vector<double> latency_s;    ///< client-observed, one per answer
  std::vector<std::string> bodies;  ///< by call index (when kept)
  std::uint64_t failed = 0;
  std::string first_error;
};

/// Open client connections, kept across passes the way a client of the
/// daemon keeps its connection: a pass then times requests only, not
/// connects and the server's per-connection thread start.
using Clients = std::vector<std::unique_ptr<LineClient>>;

Clients connect(std::uint16_t port, std::size_t connections) {
  Clients clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<LineClient>(port));
  }
  return clients;
}

/// Send `calls` over `clients` in closed loops, one thread each: a
/// client sends its next request only when the previous answer has
/// arrived. Every answer must carry the call's prefix; its body (the
/// memoized bytes after the prefix) must equal `expected[config]` when
/// given, else it is kept.
Loop drive(const Clients& clients, const std::vector<Call>& calls,
           const std::vector<std::string>* expected) {
  const std::size_t connections = clients.size();
  struct PerConnection {
    std::vector<double> latency_s;
    std::uint64_t failed = 0;
    std::string first_error;
    void fail(const std::string& what) {
      ++failed;
      if (first_error.empty()) first_error = what;
    }
  };
  Loop loop;
  if (expected == nullptr) loop.bodies.resize(calls.size());
  std::vector<PerConnection> per(connections);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PerConnection& me = per[c];
      LineClient& client = *clients[c];
      try {
        std::string response;
        for (std::size_t i; (i = next.fetch_add(1)) < calls.size();) {
          const Call& call = calls[i];
          const Clock::time_point sent = Clock::now();
          if (!client.send(call.line) || !client.recv(response)) {
            // Counted below with every other call left unanswered.
            if (me.first_error.empty()) {
              me.first_error = "connection dropped at call " +
                               std::to_string(i);
            }
            return;
          }
          me.latency_s.push_back(elapsed_s(sent));
          if (response.compare(0, call.prefix.size(), call.prefix) != 0) {
            me.fail("call " + std::to_string(i) + " answered " + response);
          } else if (expected != nullptr) {
            if (response.compare(call.prefix.size(), std::string::npos,
                                 (*expected)[call.config]) != 0) {
              me.fail("call " + std::to_string(i) + " body differs");
            }
          } else {
            loop.bodies[i] = response.substr(call.prefix.size());
          }
        }
      } catch (const std::exception& e) {
        if (me.first_error.empty()) me.first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.wall_s = elapsed_s(t0);
  // Calls left unanswered (a dropped or refused connection) fail too.
  std::size_t answered = 0;
  for (PerConnection& p : per) {
    answered += p.latency_s.size();
    loop.latency_s.insert(loop.latency_s.end(), p.latency_s.begin(),
                          p.latency_s.end());
    loop.failed += p.failed;
    if (loop.first_error.empty()) loop.first_error = p.first_error;
  }
  if (answered < calls.size()) loop.failed += calls.size() - answered;
  return loop;
}

void account(Outcome& out, const Loop& loop, std::size_t calls,
             const char* what) {
  out.attempted += calls;
  out.failed += loop.failed;
  if (loop.failed > 0) {
    std::cerr << "ppf_benchmark: " << what << ": " << loop.failed
              << " failed requests; first: " << loop.first_error << '\n';
  }
}

/// The body a run request must be answered with, computed directly by
/// the cold path (execute_job: no memo, arena or snapshot).
std::string direct_body(const serve::Service& service,
                        const std::string& config) {
  const sim::SimResult r = runlab::execute_job(service.make_job(config));
  std::ostringstream os;
  os << "\"ok\":true,\"metrics\":";
  runlab::write_metrics_json(os, r);
  os << "}";
  return os.str();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// What a traced cycle gathers over its daemons for the serve.* layers.
/// Span durations are whole microseconds taken as differences of
/// truncated timestamps, so their means are unbiased while a median of
/// sub-10 us spans would only show the rounding; the short serving steps
/// are therefore reported as means.
class ServeTrace {
 public:
  /// Fold in one finished pass: `loop` sent `calls` to `service`.
  void add(serve::Service& service, const std::vector<Call>& calls,
           const Loop& loop) {
    for (const obs::ConnectionSpans& conn : service.span_dump()) {
      if (conn.dropped > 0) {
        std::cerr << "ppf_benchmark: connection " << conn.conn << " dropped "
                  << conn.dropped << " spans\n";
      }
      for (const obs::Span& s : conn.spans) {
        if (s.request < kFirstMeasuredId) continue;
        spans_[static_cast<std::size_t>(s.name)].push_back(s.dur_us);
      }
    }
    // The server parses each line before Service::handle, where no span
    // reaches; time the same public parser on the same lines instead.
    for (const Call& c : calls) {
      const std::string line = c.line.substr(0, c.line.size() - 1);
      const Clock::time_point t0 = Clock::now();
      const serve::ParseResult parsed = serve::parse_request(line);
      parse_s_ += elapsed_s(t0);
      if (!parsed.ok) throw std::logic_error("benchmark sent a bad request");
    }
    parsed_ += calls.size();
    client_s_ += std::accumulate(loop.latency_s.begin(), loop.latency_s.end(),
                                 0.0);
    answered_ += loop.latency_s.size();
    // Daemon-lifetime counters: the priming requests are included.
    const obs::MetricsSnapshot snap = service.metrics_snapshot();
    for (const auto& [name, v] : snap.counters) counters_[name] += v;
    for (const auto& [name, v] : snap.gauges) {
      if (name == "serve.trace_bytes") trace_bytes_ += v;
    }
  }

  void write(Layers& l) const {
    const auto spans = [&](obs::SpanName n) -> const std::vector<double>& {
      return spans_[static_cast<std::size_t>(n)];
    };
    const auto counter = [&](const char* name) {
      const auto it = counters_.find(name);
      return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double parse_us =
        parsed_ == 0 ? 0 : parse_s_ * 1e6 / static_cast<double>(parsed_);
    const double client_us =
        answered_ == 0 ? 0 : client_s_ * 1e6 / static_cast<double>(answered_);
    const double request_us = mean(spans(obs::SpanName::Request));

    l["serve.parse_us"] = parse_us;
    l["serve.memo_lookup_us"] = mean(spans(obs::SpanName::MemoLookup));
    l["serve.serialize_us"] = mean(spans(obs::SpanName::Serialize));
    l["serve.request_us"] = request_us;
    l["serve.socket_us"] = client_us - request_us - parse_us;
    l["serve.queue_wait_ms_p50"] =
        median(spans(obs::SpanName::QueueWait)) * 1e-3;
    l["serve.queue_wait_ms_p99"] =
        percentile(spans(obs::SpanName::QueueWait), 0.99) * 1e-3;
    l["serve.cache_probe_ms_p50"] =
        median(spans(obs::SpanName::CacheProbe)) * 1e-3;
    l["serve.execute_ms_p50"] = median(spans(obs::SpanName::Execute)) * 1e-3;
    l["trace.unattributed_share"] =
        client_us > 0 ? 1 - (parse_us + request_us) / client_us : 0;

    const double hits = counter("serve.memo_hits");
    const double misses = counter("serve.memo_misses");
    l["serve.memo_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    l["serve.rejected"] = counter("serve.rejected_queue_full") +
                          counter("serve.rejected_shutting_down");
    const double snap_builds = counter("serve.snapshot_builds");
    const double snap_hits = counter("serve.snapshot_hits");
    l["snapshot.builds"] = snap_builds;
    l["snapshot.hits"] = snap_hits;
    l["snapshot.resumes"] = counter("serve.snapshot_resumes");
    l["snapshot.evictions"] = counter("serve.snapshot_evictions");
    l["snapshot.hit_ratio"] = snap_builds + snap_hits > 0
                                  ? snap_hits / (snap_builds + snap_hits)
                                  : 0;
    l["workload.arena_builds"] = counter("serve.trace_builds");
    l["workload.arena_mb"] = trace_bytes_ / (1 << 20);
    l["runlab.trace_hits"] = counter("serve.trace_hits");
    l["runlab.trace_evictions"] = counter("serve.trace_evictions");
  }

 private:
  std::vector<double> spans_[obs::kNumSpanNames];
  double parse_s_ = 0;
  std::size_t parsed_ = 0;
  double client_s_ = 0;  ///< summed client latency of answered calls
  std::size_t answered_ = 0;
  std::map<std::string, std::uint64_t> counters_;
  double trace_bytes_ = 0;
};

}  // namespace

// Memo hits only: 4 closed-loop connections cycle the 5 bench_serve
// configs after 5 priming requests, so parse, memo lookup, serialization
// and socket work are the whole request and nothing is simulated. The
// unit is a short round of requests against one primed daemon over the
// same four connections, so that a run holds thousands of rounds and the
// fastest of them follow the program (see fastest_count). Four
// connections, not two: with two, the vCPUs idle between requests and
// each request waits for the hypervisor to wake a halted vCPU.
Outcome serve_hits(const Options& o) {
  const std::string tail =
      std::string(o.smoke ? " instructions=10000 warmup=5000"
                          : " instructions=100000 warmup=50000") +
      " seed=" + std::to_string(o.seed);
  std::vector<std::string> configs = {
      "bench=mcf filter=pc",   "bench=mcf filter=pa",
      "bench=em3d filter=pc",  "bench=gzip filter=none",
      "bench=mcf filter=pc history_entries=8192",
  };
  for (std::string& c : configs) c += tail;
  const std::size_t round = o.smoke ? 250 : 1'000;
  constexpr std::size_t kConnections = 4;

  serve::ServiceConfig plain_cfg;  // daemon defaults but for the workers
  plain_cfg.workers = 2;
  serve::ServiceConfig traced_cfg = plain_cfg;
  traced_cfg.prof = true;
  // Room for every span a connection can record: 3 per memo hit and at
  // most 10 per priming miss.
  traced_cfg.span_buffer = 3 * round + 10 * configs.size();

  Outcome out;
  const std::vector<Call> priming =
      make_calls(configs, configs.size(), 1, false);
  const std::vector<Call> calls =
      make_calls(configs, round, kFirstMeasuredId, true);

  // Set-up: boot a fresh daemon and prime its memo with one request per
  // config, whose answers must be `want` when given. The first daemon
  // serves the rounds; set-up is timed again on fresh daemons after them,
  // so that peak_rss_mb, read after the first round, holds one daemon and
  // not the allocator's leftovers from earlier ones. Priming goes over one
  // connection, so that the peak does not depend on whether two of its
  // simulations happened to overlap.
  std::unique_ptr<Daemon> daemon;
  Clients clients;
  std::vector<double> setup_s;
  const auto boot = [&](const std::vector<std::string>* want) {
    clients.clear();
    daemon.reset();
    release_memory();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(plain_cfg);
    Loop primed = drive(connect(daemon->port(), 1), priming, want);
    setup_s.push_back(elapsed_s(t0));
    account(out, primed, priming.size(), "priming");
    return primed;
  };
  const Loop primed = boot(nullptr);
  std::vector<std::string> expected;
  Digest digest;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expected.push_back(direct_body(daemon->service(), configs[i]));
    if (primed.bodies[i] != expected[i]) {
      out.errors.push_back("served body for config " + std::to_string(i) +
                           " differs from the direct run");
    }
    digest.add(primed.bodies[i]);
  }
  // Every later answer is compared byte for byte with `expected`.
  out.check_digest(0, digest.hex(), "priming");

  clients = connect(daemon->port(), kConnections);
  RunLog log = run_units(
      o, 1,
      [&](std::size_t) {
        Loop loop = drive(clients, calls, &expected);
        account(out, loop, calls.size(), "round");
        return Pass{loop.wall_s, std::move(loop.latency_s)};
      },
      [&](Layers& l) {
        Daemon traced(traced_cfg);
        account(out, drive(connect(traced.port(), 1), priming, &expected),
                priming.size(), "traced priming");
        const Loop loop = drive(connect(traced.port(), kConnections), calls,
                                &expected);
        account(out, loop, calls.size(), "traced round");
        ServeTrace trace;
        trace.add(traced.service(), calls, loop);
        trace.write(l);
        return loop.wall_s;
      });
  for (int i = 1; i < setup_reps(o); ++i) boot(&expected);
  clients.clear();
  daemon.reset();
  // At least one round of 1000 requests: p99 leaves 10 beyond.
  const std::vector<double> op_s =
      finish(std::move(log), static_cast<double>(calls.size()), 0.99,
             setup_s, out);
  out.layers["serve.latency_p999_ms"] = percentile(op_s, 0.999) * 1e3;
  return out;
}

// Memo misses only: 4 closed-loop connections against 2 workers on a
// fresh daemon per unit. A unit is one trace seed's 45 distinct configs
// (3 benchmarks x {none,pa,pc} x 5 growing windows, windows outermost);
// every request simulates, so queue wait and arena/snapshot reuse across
// requests dominate. Eight short units rather than four long ones: on
// four, a run's time moved by about 10% with the seed, and 24 traces
// average out more of each trace's own cost than 12.
Outcome serve_misses(const Options& o) {
  constexpr std::size_t kTraces = 8;
  constexpr std::uint64_t kWindows = 5;
  const std::uint64_t first_window = o.smoke ? 2'500 : 50'000;
  const std::string warmup = o.smoke ? "1250" : "25000";
  const char* const benches[] = {"mcf", "em3d", "gzip"};
  const std::vector<std::uint64_t> seeds = sub_seeds(o.seed, kTraces);
  const auto config = [&](const char* bench, std::uint64_t seed,
                          const char* filter, std::uint64_t window) {
    return std::string("bench=") + bench + " seed=" + std::to_string(seed) +
           " filter=" + filter + " instructions=" + std::to_string(window) +
           " warmup=" + warmup;
  };
  std::vector<std::vector<std::string>> measured(kTraces);
  std::vector<std::vector<Call>> priming, calls;
  for (std::size_t k = 0; k < kTraces; ++k) {
    const std::uint64_t seed = seeds[k];
    for (std::uint64_t w = 0; w < kWindows; ++w) {
      for (const char* bench : benches) {
        for (const char* filter : {"none", "pa", "pc"}) {
          measured[k].push_back(config(
              bench, seed, filter, first_window + w * first_window / kWindows));
        }
      }
    }
    // Priming: first sight of each trace, on a machine outside the
    // measured set (1024 history entries, not the default 4096), so the
    // first window finds its arena built.
    std::vector<std::string> first;
    for (const char* bench : benches) {
      first.push_back(config(bench, seed, "none", first_window) +
                      " history_entries=1024");
    }
    priming.push_back(make_calls(first, first.size(), 1, false));
    calls.push_back(
        make_calls(measured[k], measured[k].size(), kFirstMeasuredId, false));
  }
  constexpr std::size_t kConnections = 4;

  serve::ServiceConfig plain_cfg;
  plain_cfg.workers = 2;
  serve::ServiceConfig traced_cfg = plain_cfg;
  traced_cfg.prof = true;
  traced_cfg.span_buffer = 10 * (calls[0].size() + priming[0].size());

  Outcome out;
  std::vector<double> setup_s;
  std::vector<std::vector<std::string>> first_bodies(kTraces);
  // Unit k on a fresh daemon; set-up (boot and priming) is timed into
  // setup_s for plain passes.
  const auto pass = [&](std::size_t k, const serve::ServiceConfig& cfg,
                        ServeTrace* trace) {
    const Clock::time_point t0 = Clock::now();
    Daemon daemon(cfg);
    const Clients clients = connect(daemon.port(), kConnections);
    account(out, drive(clients, priming[k], nullptr), priming[k].size(),
            "priming");
    if (trace == nullptr) setup_s.push_back(elapsed_s(t0));
    Loop loop = drive(clients, calls[k], nullptr);
    account(out, loop, calls[k].size(), trace ? "traced pass" : "pass");
    Digest digest;
    for (const std::string& b : loop.bodies) digest.add(b);
    out.check_digest(k, digest.hex(), trace ? "traced pass" : "pass");
    if (first_bodies[k].empty()) first_bodies[k] = loop.bodies;
    if (trace != nullptr) trace->add(daemon.service(), calls[k], loop);
    return loop;
  };
  RunLog log = run_units(
      o, kTraces,
      [&](std::size_t k) {
        Loop loop = pass(k, plain_cfg, nullptr);
        return Pass{loop.wall_s, std::move(loop.latency_s)};
      },
      [&](Layers& l) {
        ServeTrace trace;
        double cycle_s = 0;
        for (std::size_t k = 0; k < kTraces; ++k) {
          cycle_s += pass(k, traced_cfg, &trace).wall_s;
          release_memory();
        }
        trace.write(l);
        return cycle_s;
      });

  // Spot-check every 9th served body against the cold path.
  const serve::Service resolver(plain_cfg);
  for (std::size_t k = 0; k < kTraces; ++k) {
    for (std::size_t i = 0; i < measured[k].size(); i += 9) {
      if (first_bodies[k][i] != direct_body(resolver, measured[k][i])) {
        out.errors.push_back("served body for unit " + std::to_string(k) +
                             " config " + std::to_string(i) +
                             " differs from the direct run");
      }
    }
  }

  // At least 720 requests (two passes of 360): the 97th percentile leaves
  // 21 beyond.
  finish(std::move(log), static_cast<double>(kTraces * calls[0].size()),
         0.97, setup_s, out);
  return out;
}

}  // namespace ppf::bench
