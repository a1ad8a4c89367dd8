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
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "serve/load.hpp"
#include "serve/protocol.hpp"
#include "sim/config_apply.hpp"

using namespace ppf;

namespace {

const std::vector<sim::DriverKey> kKeys = {
    {"host", "daemon address (default 127.0.0.1)", sim::kText},
    {"port", "daemon port (required)", sim::ints(1, 65535)},
    {"connections", "concurrent connections (default 4)",
     sim::ints(0, 1024)},
    {"requests", "total run requests (default 100)", sim::kCount},
    {"config", "one config string, in ppf_batch's key=value grammar; quote "
               "the spaces",
     sim::kText},
    {"configs", "several config strings, ';'-separated, cycled round-robin "
                "(overrides config=)",
     sim::kText},
    {"verify", "byte-identity check across repeats (default 1)", sim::kBool},
    {"stats", "fetch and print the daemon stats snapshot after the run "
              "(default 1)",
     sim::kBool},
    {"shutdown", "send the shutdown verb when done (default 0)", sim::kBool},
    {"warmup_requests", "exclude the first N requests from the latency "
                        "percentiles (default 0)",
     sim::kCount},
    {"scrape", "one-shot mode: send VERB (metrics, stats, dump, shutdown) "
               "and print the response; for metrics and dump the raw body",
     sim::kText},
};

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
  sim::CommandLine cli(kKeys);
  const std::optional<ParamMap> args = cli.parse(argc, argv);
  if (!args) return 2;
  if (!args->has("port")) return cli.usage_error("port= is required");

  serve::LoadOptions opts;
  opts.host = args->get_string("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args->get_u64("port", 0));
  opts.connections = args->get_u64("connections", 4);
  opts.requests = args->get_u64("requests", 100);
  opts.verify_bytes = args->get_bool("verify", true);
  opts.fetch_stats = args->get_bool("stats", true);
  opts.send_shutdown = args->get_bool("shutdown", false);
  opts.warmup_requests = args->get_u64("warmup_requests", 0);
  const std::string scrape = args->get_string("scrape", "");
  const std::string many = args->get_string("configs", "");
  if (!many.empty()) {
    opts.configs = split_list(many, ';');
  } else {
    opts.configs.push_back(args->get_string(
        "config", "bench=mcf filter=pc instructions=200000"));
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
