// ppf_serve — sweep-as-a-service daemon.
//
// Listens on a TCP port and answers line-delimited JSON requests (see
// docs/SERVE.md): clients submit the same key=value config strings
// ppf_batch accepts and get back the same deterministic metrics objects
// the batch JSON sink writes. Repeated identical configs are answered
// from a result memo; trace arenas and warmup snapshots persist across
// requests for the daemon's lifetime (LRU byte budgets apply).
//
//   ppf_serve port=7077 jobs=4 queue_depth=64
//   ppf_serve port=0            # ephemeral; parse the announce line
//
// Prints "ppf_serve: listening on HOST:PORT" to stderr once ready.
// SIGINT/SIGTERM (or a client's `shutdown` verb) drain in-flight work
// and exit 0.
#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/shutdown.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/config_apply.hpp"

using namespace ppf;

namespace {

// Fatal-signal flight dump: the handler may only touch async-signal-safe
// calls, which FlightRecorder::crash_dump honors (try_lock + snprintf +
// write(2)). Plain pointers/arrays — no destructors run on this path.
obs::FlightRecorder* g_flight = nullptr;
char g_flight_out[512] = {0};

extern "C" void crash_handler(int sig) {
  if (g_flight != nullptr && g_flight_out[0] != '\0') {
    const int fd =
        ::open(g_flight_out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      g_flight->crash_dump(fd);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

const std::vector<sim::DriverKey> kKeys = {
    {"host", "bind address (default 127.0.0.1)", sim::kText},
    {"port", "TCP port; 0 picks an ephemeral one (default 0)",
     sim::ints(0, 65535)},
    {"jobs", "simulation worker threads (default 0: one per hardware "
             "thread)",
     sim::ints(0, 1024)},
    {"queue_depth", "max queued+in-flight runs before queue_full "
                    "rejections (default 64)",
     sim::ints(1, sim::kU64)},
    {"memo", "serve repeated identical configs from the result memo "
             "(default 1)",
     sim::kBool},
    {"trace_cache_mb", "LRU byte budget for resident trace arenas "
                       "(default 0: unbounded)",
     sim::ints(0, sim::k2To20)},
    {"snapshot_cache_mb", "LRU budget for warmup snapshots (default 0: "
                          "unbounded)",
     sim::ints(0, sim::k2To20)},
    {"instructions", "measurement window for configs that do not set "
                     "instructions= (default 1000000)",
     sim::kCount},
    {"prof", "wall-clock profiler probes on serve and runlab hot paths "
             "(default 0)",
     sim::kBool},
    {"span_buffer", "per-connection request-span ring capacity; 0 disables "
                    "spans (default 4096)",
     sim::ints(0, sim::k2To20)},
    {"flight_recorder", "flight-recorder span ring capacity; 0 disables it "
                        "(default 2048)",
     sim::ints(0, sim::k2To20)},
    {"flight_out", "where CheckViolation and fatal-signal flight dumps land "
                   "(default ppf_serve_flight.jsonl)",
     sim::kText},
    {"span_out", "write the whole soak's request spans as a Chrome/Perfetto "
                 "trace to PATH on exit (default off)",
     sim::kText},
};

}  // namespace

int main(int argc, char** argv) {
  sim::CommandLine cli(kKeys);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;

  serve::ServiceConfig cfg;
  serve::ServerOptions net;
  net.host = args->get_string("host", "127.0.0.1");
  net.port = static_cast<std::uint16_t>(args->get_u64("port", 0));
  cfg.workers = args->get_u64("jobs", 0);
  cfg.queue_depth = args->get_u64("queue_depth", 64);
  cfg.memo = args->get_bool("memo", true);
  cfg.trace_cache_mb = args->get_u64("trace_cache_mb", 0);
  cfg.snapshot_cache_mb = args->get_u64("snapshot_cache_mb", 0);
  cfg.default_instructions = args->get_u64("instructions", 1'000'000);
  cfg.prof = args->get_bool("prof", false);
  cfg.span_buffer = args->get_u64("span_buffer", 4096);
  cfg.flight_recorder = args->get_u64("flight_recorder", 2048);
  cfg.flight_out = args->get_string("flight_out", "ppf_serve_flight.jsonl");
  const std::string span_out = args->get_string("span_out", "");

  try {
    serve::Service service(cfg);
    if (service.flight() != nullptr) {
      g_flight = service.flight();
      cfg.flight_out.copy(g_flight_out, sizeof(g_flight_out) - 1);
      ::signal(SIGSEGV, crash_handler);
      ::signal(SIGABRT, crash_handler);
    }
    serve::Server server(service, net);
    ShutdownRequest shutdown;
    shutdown.install_signal_handlers();
    std::cerr << "ppf_serve: listening on " << net.host << ":"
              << server.port() << " (" << service.workers()
              << " workers, queue depth " << cfg.queue_depth << ")\n"
              << std::flush;
    server.serve(shutdown);
    // The handler must not outlive the Service it points into.
    g_flight = nullptr;
    if (!span_out.empty()) {
      std::ofstream out(span_out, std::ios::trunc);
      if (out) {
        obs::write_spans_chrome(out, service.span_dump(), "ppf_serve");
        std::cerr << "ppf_serve: wrote request spans to " << span_out
                  << "\n";
      } else {
        std::cerr << "ppf_serve: could not open span_out " << span_out
                  << "\n";
      }
    }
    std::cerr << "ppf_serve: drained, exiting\n";
  } catch (const std::exception& e) {
    std::cerr << "ppf_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
