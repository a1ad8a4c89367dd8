// ppf::serve — soak-test load generator (the library behind ppf_load).
//
// Opens N concurrent connections to a running daemon and drives a total
// of R `run` requests through them (each connection issues the next
// request as soon as its previous response lands — closed-loop, depth-1
// per connection). Configs are assigned round-robin from the given
// list, so every config is requested many times and the memo path is
// exercised hard.
//
// Verification is part of generation: every response must parse, carry
// the echoed request id, and — for repeated configs — carry a result
// body byte-identical to the first response for that config (the
// serve-side memo contract). Any deviation counts in the report; the
// soak gate is errors == 0 && byte_mismatches == 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ppf::serve {

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  std::size_t requests = 100;  ///< total across all connections
  /// Config strings cycled round-robin across requests. Must be
  /// non-empty.
  std::vector<std::string> configs;
  /// Compare result bodies across repeats of the same config.
  bool verify_bytes = true;
  /// Fetch the daemon's `stats` snapshot after the run.
  bool fetch_stats = true;
  /// Send the `shutdown` verb once the run (and stats fetch) finishes.
  bool send_shutdown = false;
  /// Exclude the first N requests (by global issue order) from the
  /// latency percentiles — they pay one-time arena/snapshot builds and
  /// would otherwise dominate the tail of a short soak. Verification
  /// still covers them.
  std::size_t warmup_requests = 0;
};

struct LoadReport {
  std::size_t sent = 0;
  std::size_t ok = 0;        ///< well-formed result responses
  std::size_t cached = 0;    ///< of which served from the memo
  std::size_t errors = 0;    ///< error responses + malformed + I/O
  std::size_t byte_mismatches = 0;  ///< repeat body differed from first
  std::string first_error;   ///< first failure observed, for diagnosis
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  // Client-observed request latency, microseconds (post-warmup samples).
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  std::uint64_t latency_max_us = 0;
  std::size_t latency_samples = 0;   ///< requests in the percentiles
  std::size_t warmup_excluded = 0;   ///< requests excluded as warmup
  std::string stats_json;  ///< raw stats response (when fetch_stats)
};

/// Run the load described by `opts`; throws std::invalid_argument on an
/// unusable spec (no configs, no requests) and std::runtime_error when
/// the daemon is unreachable. Individual request failures never throw —
/// they are counted in the report.
LoadReport run_load(const LoadOptions& opts);

/// Human-readable one-screen rendering of a report. The format is
/// pinned by tests/serve/telemetry_test.cpp — CI greps it.
std::string describe(const LoadReport& rep);

/// One-shot client: send `{"op":<verb>,"id":0}` and return the raw
/// response line. Throws std::runtime_error on connect/IO failure.
/// Backs ppf_load's scrape= mode (metrics / stats / dump / shutdown).
std::string fetch_verb(const std::string& host, std::uint16_t port,
                       const std::string& verb);

}  // namespace ppf::serve
