// serve service tests: admission + memoization semantics at the
// Service::handle level, the signature-as-cache-key stability contracts
// (the CLI and the daemon must agree byte-for-byte on what "the same
// config" means), graceful shutdown driven through the deterministic
// ShutdownRequest::request() hook, and a full TCP round-trip through
// Server + the ppf_load generator. This binary carries the `serve`
// CTest label so the daemon paths can run under TSan in isolation.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/shutdown.hpp"
#include "diff/signature.hpp"
#include "serve/load.hpp"
#include "serve/memo.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/config_apply.hpp"

namespace ppf::serve {
namespace {

// Small enough that a full service test runs in well under a second.
constexpr const char* kTinyConfig =
    "bench=mcf filter=pc instructions=20000 warmup=0";

ServiceConfig tiny_service_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  return cfg;
}

Request run_request(std::uint64_t id, const std::string& config) {
  Request req;
  req.verb = "run";
  req.id = id;
  req.fields["config"] = config;
  return req;
}

/// Everything after the `"cached":N,` prefix — the memoizable bytes.
std::string body_of(const std::string& response) {
  const std::string marker = "\"cached\":";
  const std::size_t at = response.find(marker);
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return "";
  const std::size_t comma = response.find(',', at);
  EXPECT_NE(comma, std::string::npos) << response;
  return response.substr(comma + 1);
}

std::uint64_t counter_value(const Service& service, const std::string& name) {
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

// ---------------------------------------------------------------------
// Signature stability: the daemon's make_job must resolve a config
// string to the exact SimConfig the ppf_batch/ppf_sim CLIs build, so
// diff::config_signature — the memo key — is identical across entry
// points.

TEST(MakeJob, MatchesTheCliApplyOverridesPath) {
  Service service(tiny_service_config());
  const runlab::Job job = service.make_job(
      "bench=mcf filter=pa seed=3 instructions=50000 warmup=10000 "
      "l1d_kb=16 history_entries=8192");

  // The CLI path: paper defaults, then apply_overrides with the same
  // machine keys (bench/filter are driver keys there too).
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 1'000'000;  // ServiceConfig::default_instructions
  ParamMap machine;
  machine.set("seed", "3");
  machine.set("instructions", "50000");
  machine.set("warmup", "10000");
  machine.set("l1d_kb", "16");
  machine.set("history_entries", "8192");
  sim::apply_overrides(cfg, machine);
  cfg.filter = "pa";

  EXPECT_EQ(diff::config_signature(job.config, job.benchmark),
            diff::config_signature(cfg, "mcf"));
  EXPECT_EQ(job.benchmark, "mcf");
  EXPECT_EQ(job.filter_name, "pa");
  // seed= must reach both the workload seed and the core sampling seed,
  // exactly as apply_overrides wires it.
  EXPECT_EQ(job.seed, 3u);
  EXPECT_EQ(job.config.core.seed, 3u);
}

TEST(MakeJob, KeyOrderAndRedundantWhitespaceDoNotMatter) {
  Service service(tiny_service_config());
  const runlab::Job a =
      service.make_job("bench=mcf filter=pc seed=5 instructions=40000");
  const runlab::Job b = service.make_job(
      "  instructions=40000   seed=5\tfilter=pc  bench=mcf ");
  EXPECT_EQ(diff::config_signature(a.config, a.benchmark),
            diff::config_signature(b.config, b.benchmark));
}

TEST(MakeJob, RejectsMalformedAndUnknownConfigs) {
  Service service(tiny_service_config());
  EXPECT_THROW(service.make_job("bench=mcf not-key-value"),
               std::invalid_argument);
  EXPECT_THROW(service.make_job("bench=mcf =5"), std::invalid_argument);
  EXPECT_THROW(service.make_job("filter=pc"), std::invalid_argument);
  EXPECT_THROW(service.make_job("bench=no-such-benchmark"),
               std::invalid_argument);
  EXPECT_THROW(service.make_job("bench=mcf+nope/10"), std::invalid_argument);
  EXPECT_THROW(service.make_job("bench=em3d+gzip/0"), std::invalid_argument);
  EXPECT_THROW(service.make_job("bench=mcf no_such_knob=1"),
               std::invalid_argument);
  // obs= is a CLI *driver* key (sink wiring), not a machine override —
  // a daemon config string must not smuggle it in.
  EXPECT_THROW(service.make_job("bench=mcf obs=1"), std::invalid_argument);
}

TEST(Signature, ObsKnobsDoNotForkMemoKeys) {
  // Observability never moves a simulation counter (diff.obs_invisible
  // oracle), so config_signature — and therefore the memo key —
  // deliberately ignores cfg.obs.
  Service service(tiny_service_config());
  const runlab::Job job = service.make_job(kTinyConfig);
  sim::SimConfig observed = job.config;
  observed.obs.enabled = true;
  observed.obs.sample_interval = 1000;
  observed.obs.capture_events = false;
  EXPECT_EQ(diff::config_signature(observed, job.benchmark),
            diff::config_signature(job.config, job.benchmark));
}

TEST(Signature, DistinctMachinesDoForkMemoKeys) {
  Service service(tiny_service_config());
  const runlab::Job base = service.make_job(kTinyConfig);
  for (const char* delta :
       {"seed=9", "instructions=30000", "warmup=5000", "history_entries=256",
        "source_separated=0", "l1d_kb=16", "filter=pa",
        // Within 1e-6 of the default 0.25: doubles are keyed exactly.
        "dep_prob=0.2500004"}) {
    const runlab::Job other =
        service.make_job(std::string(kTinyConfig) + " " + delta);
    EXPECT_NE(diff::config_signature(other.config, other.benchmark),
              diff::config_signature(base.config, base.benchmark))
        << delta;
  }
  const runlab::Job em3d = service.make_job(
      "bench=em3d filter=pc instructions=20000 warmup=0");
  EXPECT_NE(diff::config_signature(em3d.config, em3d.benchmark),
            diff::config_signature(base.config, base.benchmark));
}

// ---------------------------------------------------------------------
// ResultMemo unit semantics.

TEST(ResultMemo, FirstWriterWinsAndStatsTrack) {
  ResultMemo memo;
  std::string body;
  EXPECT_FALSE(memo.lookup("sig-a", body));
  memo.insert("sig-a", "body-1");
  memo.insert("sig-a", "body-2");  // late duplicate: ignored
  ASSERT_TRUE(memo.lookup("sig-a", body));
  EXPECT_EQ(body, "body-1");
  const MemoStats st = memo.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, std::string("body-1").size());
}

// ---------------------------------------------------------------------
// Service::handle — one dispatcher for every verb.

TEST(Service, RepeatRunsAreServedFromMemoByteIdentically) {
  Service service(tiny_service_config());
  const Handled first = service.handle(run_request(7, kTinyConfig));
  EXPECT_FALSE(first.shutdown);
  EXPECT_EQ(first.response.rfind("{\"op\":\"result\",\"id\":7,\"cached\":0,", 0),
            0u)
      << first.response;
  EXPECT_NE(first.response.find("\"ok\":true,\"metrics\":{"),
            std::string::npos);

  const Handled second = service.handle(run_request(8, kTinyConfig));
  EXPECT_EQ(second.response.rfind("{\"op\":\"result\",\"id\":8,\"cached\":1,", 0),
            0u)
      << second.response;
  EXPECT_EQ(body_of(second.response), body_of(first.response));
  EXPECT_EQ(counter_value(service, "serve.memo_hits"), 1u);
  EXPECT_EQ(counter_value(service, "serve.memo_misses"), 1u);
  EXPECT_EQ(counter_value(service, "serve.admitted"), 1u);
}

TEST(Service, MixRunsAreAnsweredAndMemoized) {
  Service service(tiny_service_config());
  const std::string mix =
      "bench=em3d+gzip/5000 filter=static instructions=20000 warmup=0";
  const Handled first = service.handle(run_request(1, mix));
  EXPECT_EQ(
      first.response.rfind("{\"op\":\"result\",\"id\":1,\"cached\":0,", 0),
      0u)
      << first.response;
  EXPECT_NE(first.response.find("\"ok\":true,\"metrics\":{"),
            std::string::npos);
  const Handled second = service.handle(run_request(2, mix));
  EXPECT_EQ(
      second.response.rfind("{\"op\":\"result\",\"id\":2,\"cached\":1,", 0),
      0u)
      << second.response;
  EXPECT_EQ(body_of(second.response), body_of(first.response));
  EXPECT_EQ(counter_value(service, "serve.memo_hits"), 1u);

  const Handled bad = service.handle(run_request(3, "bench=mcf+nope/10"));
  EXPECT_NE(bad.response.find("\"code\":\"bad_config\""), std::string::npos);
  EXPECT_NE(bad.response.find("nope"), std::string::npos) << bad.response;
  EXPECT_EQ(counter_value(service, "serve.bad_configs"), 1u);
}

TEST(Service, FailedArenaBuildDoesNotPoisonItsTrace) {
  // 2^60 instructions fail the arena build at once. That need must not
  // stay in the trace's watermark, or the next run of the same trace
  // would be sized to it and fail the same way.
  Service service(tiny_service_config());
  const Handled huge = service.handle(
      run_request(1, "bench=mcf instructions=1152921504606846976 warmup=0"));
  EXPECT_NE(huge.response.find("\"code\":\"internal\""), std::string::npos)
      << huge.response;
  const Handled next = service.handle(run_request(2, kTinyConfig));
  EXPECT_NE(next.response.find("\"ok\":true"), std::string::npos)
      << next.response;
}

TEST(Service, CheckKnobsDoNotForkMemoEntries) {
  // check=paranoid only *reads* simulator state (diff.check_off_vs_
  // paranoid oracle), so the memo must answer the checked request from
  // the unchecked run's entry — same signature, same bytes.
  Service service(tiny_service_config());
  const Handled plain = service.handle(run_request(1, kTinyConfig));
  const Handled checked = service.handle(run_request(
      2, std::string(kTinyConfig) + " check=paranoid check_period=1000"));
  EXPECT_NE(checked.response.find("\"cached\":1,"), std::string::npos)
      << checked.response;
  EXPECT_EQ(body_of(checked.response), body_of(plain.response));
  EXPECT_EQ(counter_value(service, "serve.memo_hits"), 1u);
}

TEST(Service, MemoOffRecomputesButStaysByteIdentical) {
  ServiceConfig cfg = tiny_service_config();
  cfg.memo = false;
  Service service(cfg);
  const Handled a = service.handle(run_request(1, kTinyConfig));
  const Handled b = service.handle(run_request(2, kTinyConfig));
  EXPECT_NE(a.response.find("\"cached\":0,"), std::string::npos);
  EXPECT_NE(b.response.find("\"cached\":0,"), std::string::npos);
  // Determinism contract: recomputing is invisible in the bytes.
  EXPECT_EQ(body_of(a.response), body_of(b.response));
  EXPECT_EQ(counter_value(service, "serve.admitted"), 2u);
}

TEST(Service, AnswersPingStatsAndErrors) {
  Service service(tiny_service_config());
  Request ping;
  ping.verb = "ping";
  ping.id = 11;
  EXPECT_EQ(service.handle(ping).response, "{\"op\":\"pong\",\"id\":11}");

  Request stats;
  stats.verb = "stats";
  stats.id = 12;
  const std::string st = service.handle(stats).response;
  EXPECT_EQ(st.rfind("{\"op\":\"stats\",\"id\":12,\"workers\":2,", 0), 0u)
      << st;
  for (const char* name :
       {"serve.requests", "serve.admitted", "serve.memo_hits",
        "serve.queue_depth", "serve.latency_us", "serve.miss_latency_us"}) {
    EXPECT_NE(st.find(name), std::string::npos) << name;
  }

  Request bogus;
  bogus.verb = "explode";
  bogus.id = 13;
  EXPECT_NE(service.handle(bogus).response.find("\"code\":\"unknown_verb\""),
            std::string::npos);

  Request no_config;
  no_config.verb = "run";
  no_config.id = 14;
  EXPECT_NE(
      service.handle(no_config).response.find("\"code\":\"bad_request\""),
      std::string::npos);

  const Handled bad =
      service.handle(run_request(15, "bench=mcf no_such_knob=1"));
  EXPECT_NE(bad.response.find("\"code\":\"bad_config\""), std::string::npos);
  EXPECT_NE(bad.response.find("no_such_knob"), std::string::npos);
  EXPECT_EQ(counter_value(service, "serve.bad_configs"), 1u);
  EXPECT_EQ(counter_value(service, "serve.requests"), 5u);
}

TEST(Service, FullQueueRejectsFastInsteadOfBlocking) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 1;
  cfg.memo = false;
  Service service(cfg);

  // Fill the single slot with a job long enough to still be running
  // when the probe arrives (queued + in-flight both count against the
  // depth, so the slot stays occupied until the body is set).
  std::thread busy([&] {
    const Handled h = service.handle(run_request(
        1, "bench=mcf filter=pc instructions=5000000 warmup=0"));
    EXPECT_NE(h.response.find("\"ok\":true"), std::string::npos);
  });
  while (counter_value(service, "serve.admitted") == 0) {
    std::this_thread::yield();
  }

  const Handled probe = service.handle(run_request(2, kTinyConfig));
  EXPECT_NE(probe.response.find("\"code\":\"queue_full\""), std::string::npos)
      << probe.response;
  EXPECT_EQ(counter_value(service, "serve.rejected_queue_full"), 1u);
  busy.join();
}

TEST(Service, ShutdownVerbDrainsAndRejectsNewRuns) {
  Service service(tiny_service_config());
  // Warm the memo before draining: hits must still be served.
  const Handled first = service.handle(run_request(1, kTinyConfig));

  Request bye;
  bye.verb = "shutdown";
  bye.id = 2;
  const Handled h = service.handle(bye);
  EXPECT_TRUE(h.shutdown);
  EXPECT_EQ(h.response, "{\"op\":\"bye\",\"id\":2}");
  EXPECT_TRUE(service.shutting_down());

  const Handled rejected = service.handle(run_request(
      3, "bench=em3d filter=pc instructions=20000 warmup=0"));
  EXPECT_NE(rejected.response.find("\"code\":\"shutting_down\""),
            std::string::npos);
  // Memo hits need no admission, so they outlive the drain decision.
  const Handled hit = service.handle(run_request(4, kTinyConfig));
  EXPECT_NE(hit.response.find("\"cached\":1,"), std::string::npos);
  EXPECT_EQ(body_of(hit.response), body_of(first.response));
  service.drain();  // idle service: returns immediately
  EXPECT_EQ(counter_value(service, "serve.rejected_shutting_down"), 1u);
}

// ---------------------------------------------------------------------
// ShutdownRequest — the deterministic signal stand-in itself.

TEST(ShutdownRequest, RequestTripsFlagPipeAndWait) {
  ShutdownRequest shutdown;
  EXPECT_FALSE(shutdown.requested());
  EXPECT_FALSE(shutdown.wait(0));
  EXPECT_GE(shutdown.fd(), 0);
  shutdown.request();
  EXPECT_TRUE(shutdown.requested());
  EXPECT_TRUE(shutdown.wait(-1));
  shutdown.request();  // idempotent
  EXPECT_TRUE(shutdown.requested());
}

TEST(ShutdownRequest, WakesABlockedWaiter) {
  ShutdownRequest shutdown;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_TRUE(shutdown.wait(10'000));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  shutdown.request();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

// ---------------------------------------------------------------------
// Server + load generator: the whole TCP path, ephemeral port, multiple
// connections, shutdown-verb initiated drain.

TEST(Server, LoadRoundTripServesMemoHitsByteIdentically) {
  ServiceConfig cfg = tiny_service_config();
  Service service(cfg);
  Server server(service, {});
  ASSERT_NE(server.port(), 0);

  ShutdownRequest shutdown;
  std::thread daemon([&] { server.serve(shutdown); });

  LoadOptions load;
  load.port = server.port();
  load.connections = 3;
  load.requests = 12;
  load.configs = {kTinyConfig,
                  "bench=em3d filter=pa instructions=20000 warmup=0"};
  load.send_shutdown = true;  // serve() must return once the verb lands
  const LoadReport rep = run_load(load);
  daemon.join();

  EXPECT_EQ(rep.sent, 12u);
  EXPECT_EQ(rep.ok, 12u);
  EXPECT_EQ(rep.errors, 0u) << rep.first_error;
  EXPECT_EQ(rep.byte_mismatches, 0u);
  // 2 distinct configs over 3 connections: concurrent first sights may
  // each compute (all inserting identical bytes), so up to
  // connections x configs = 6 cold responses — but never fewer than
  // 12 - 6 = 6 memo hits.
  EXPECT_GE(rep.cached, 6u);
  EXPECT_NE(rep.stats_json.find("\"serve.memo_hits\""), std::string::npos);
  EXPECT_TRUE(service.shutting_down());
}

TEST(Server, ProgrammaticShutdownRequestStopsAnIdleServer) {
  Service service(tiny_service_config());
  Server server(service, {});
  ShutdownRequest shutdown;
  std::thread daemon([&] { server.serve(shutdown); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  shutdown.request();  // what a SIGINT/SIGTERM handler would do
  daemon.join();       // accept loop must wake via the self-pipe
  SUCCEED();
}

/// A raw line-protocol TCP connection to a Server on localhost.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  /// Send `line` and return the one response line it gets back.
  std::string round_trip(const std::string& line) {
    const std::string framed = line + "\n";
    if (::send(fd_, framed.data(), framed.size(), 0) !=
        static_cast<ssize_t>(framed.size())) {
      return "<send failed>";
    }
    std::string reply;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') reply += c;
    return reply;
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(Server, ProtocolErrorsAreAnsweredNotFatal) {
  Service service(tiny_service_config());
  Server server(service, {});
  ShutdownRequest shutdown;
  std::thread daemon([&] { server.serve(shutdown); });

  // Raw connection: a garbage line must come back as a bad_request
  // error on the same connection, and the connection must stay usable.
  {
    RawConnection conn(server.port());
    ASSERT_TRUE(conn.connected());
    EXPECT_NE(conn.round_trip("this is not json")
                  .find("\"code\":\"bad_request\""),
              std::string::npos);
    EXPECT_EQ(conn.round_trip("{\"op\":\"ping\",\"id\":99}"),
              "{\"op\":\"pong\",\"id\":99}");
  }
  EXPECT_GE(counter_value(service, "serve.bad_requests"), 1u);

  shutdown.request();
  daemon.join();
}

TEST(Server, CoreShapesTheTimingModelCannotRunAreRejectedNotFatal) {
  // rob < width, width=0, lsq=0, nsp_degree=0 and l2_kb=3 used to reach
  // a PPF_CHECK in a component constructor and abort the daemon,
  // dropping every connection.
  Service service(tiny_service_config());
  Server server(service, {});
  ShutdownRequest shutdown;
  std::thread daemon([&] { server.serve(shutdown); });
  {
    RawConnection conn(server.port());
    ASSERT_TRUE(conn.connected());
    const std::pair<const char*, const char*> bad[] = {
        {"rob=4", "rob must be >= width (rob=4, width=8)"},
        {"width=0", "width=0: expected an integer in [1, 1024]"},
        {"lsq=0", "lsq=0: expected an integer in [1, 1048576]"},
        {"nsp_degree=0", "nsp_degree=0: expected an integer in [1, 64]"},
        {"l2_kb=3", "l2_kb=3: expected a power of two in [4, 65536]"},
    };
    std::uint64_t id = 1;
    for (const auto& [knob, message] : bad) {
      const std::string reply = conn.round_trip(
          "{\"op\":\"run\",\"id\":" + std::to_string(id++) +
          ",\"config\":\"bench=mcf " + knob + "\"}");
      EXPECT_EQ(reply.rfind("{\"op\":\"error\",", 0), 0u) << reply;
      EXPECT_NE(reply.find("\"code\":\"bad_config\""), std::string::npos)
          << reply;
      EXPECT_NE(reply.find(message), std::string::npos) << reply;
    }
    // The same connection still runs a valid config.
    const std::string ok = conn.round_trip(
        "{\"op\":\"run\",\"id\":9,\"config\":\"" +
        std::string(kTinyConfig) + "\"}");
    EXPECT_EQ(ok.rfind("{\"op\":\"result\",\"id\":9,", 0), 0u) << ok;
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  }
  EXPECT_EQ(counter_value(service, "serve.bad_configs"), 5u);

  shutdown.request();
  daemon.join();
}

}  // namespace
}  // namespace ppf::serve
