// ppf_load — closed-loop load generator for a running ppf_serve daemon.
//
// Drives `requests` total run-requests through `connections` concurrent
// connections, cycling the given config strings round-robin, then
// reports throughput, client-observed latency percentiles, memo hit
// counts, and byte-identity verification (every repeat of a config must
// return the exact bytes of its first response).
//
//   ppf_load port=7077 connections=8 requests=1000
//            config="bench=mcf filter=pc instructions=200000"
//   ppf_load port=7077 configs="bench=mcf;bench=em3d filter=pa" shutdown=1
//
// Exit 0 only when every request succeeded and no byte mismatch was
// seen — the soak gate CI relies on.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "serve/load.hpp"
#include "serve/protocol.hpp"

using namespace ppf;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " port=N [key=value ...]\n\n"
      << "keys:\n"
      << "  host=ADDR       — daemon address (default 127.0.0.1)\n"
      << "  port=N          — daemon port (required)\n"
      << "  connections=N   — concurrent connections (default 4)\n"
      << "  requests=N      — total run requests (default 100)\n"
      << "  config=STR      — one config string (same key=value grammar "
         "as ppf_batch; quote the spaces)\n"
      << "  configs=A;B;... — several config strings, ';'-separated, "
         "cycled round-robin (overrides config=)\n"
      << "  verify=0|1      — byte-identity check across repeats "
         "(default 1)\n"
      << "  stats=0|1       — fetch and print the daemon stats snapshot "
         "after the run (default 1)\n"
      << "  shutdown=0|1    — send the shutdown verb when done "
         "(default 0)\n"
      << "  warmup_requests=N — exclude the first N requests from the "
         "latency percentiles (default 0)\n"
      << "  scrape=VERB     — one-shot mode: send VERB (metrics, stats, "
         "dump, shutdown) and print the response; for metrics and dump "
         "the raw body is printed\n";
  return 2;
}

/// scrape= one-shot: fetch a single verb instead of running a load.
/// metrics/dump responses carry their payload in a "body" field — print
/// it raw so the output pipes straight into a Prometheus scraper or a
/// JSONL consumer; everything else prints the raw response line.
int run_scrape(const serve::LoadOptions& opts, const std::string& verb) {
  std::string response;
  try {
    response = serve::fetch_verb(opts.host, opts.port, verb);
  } catch (const std::exception& e) {
    std::cerr << "ppf_load: " << e.what() << "\n";
    return 1;
  }
  if (verb == "metrics" || verb == "dump") {
    const serve::ParseResult parsed = serve::parse_request(response);
    if (!parsed.ok) {
      std::cerr << "ppf_load: unparsable " << verb
                << " response: " << response << "\n";
      return 1;
    }
    if (parsed.req.verb == "error") {
      std::cerr << "ppf_load: " << response << "\n";
      return 1;
    }
    const auto body = parsed.req.fields.find("body");
    if (body == parsed.req.fields.end()) {
      std::cerr << "ppf_load: " << verb
                << " response has no body: " << response << "\n";
      return 1;
    }
    std::cout << body->second;
    return 0;
  }
  std::cout << response << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ParamMap params;
  try {
    params = ParamMap::from_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  if (params.has("help")) return usage(argv[0]);
  const std::vector<std::string> known = {
      "host",   "port",  "connections", "requests", "config",
      "configs", "verify", "stats",      "shutdown", "warmup_requests",
      "scrape"};
  for (const auto& [k, v] : params.entries()) {
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      std::cerr << "unknown key: " << k << "\n\n";
      return usage(argv[0]);
    }
  }

  serve::LoadOptions opts;
  std::string scrape;
  try {
    opts.host = params.get_string("host", "127.0.0.1");
    opts.port = static_cast<std::uint16_t>(params.get_u64("port", 0));
    opts.connections = params.get_u64("connections", 4);
    opts.requests = params.get_u64("requests", 100);
    opts.verify_bytes = params.get_bool("verify", true);
    opts.fetch_stats = params.get_bool("stats", true);
    opts.send_shutdown = params.get_bool("shutdown", false);
    opts.warmup_requests = params.get_u64("warmup_requests", 0);
    scrape = params.get_string("scrape", "");
    const std::string many = params.get_string("configs", "");
    if (!many.empty()) {
      opts.configs = split_list(many, ';');
    } else {
      opts.configs.push_back(params.get_string(
          "config", "bench=mcf filter=pc instructions=200000"));
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  if (opts.port == 0) {
    std::cerr << "port= is required\n\n";
    return usage(argv[0]);
  }
  if (!scrape.empty()) return run_scrape(opts, scrape);

  serve::LoadReport rep;
  try {
    rep = serve::run_load(opts);
  } catch (const std::exception& e) {
    std::cerr << "ppf_load: " << e.what() << "\n";
    return 1;
  }
  std::cout << serve::describe(rep);
  if (opts.fetch_stats && !rep.stats_json.empty()) {
    std::cout << "stats: " << rep.stats_json << "\n";
  }
  return rep.errors == 0 && rep.byte_mismatches == 0 &&
                 rep.sent == opts.requests
             ? 0
             : 1;
}
