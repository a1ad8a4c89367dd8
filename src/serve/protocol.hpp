// ppf::serve — wire protocol for the sweep daemon.
//
// Line-delimited JSON over a plain byte stream: each request is one JSON
// object on one line, each response is one JSON object on one line, in
// request order per connection. No external JSON dependency — the parser
// below accepts exactly the flat object grammar the protocol needs
// (string / unsigned-integer / boolean values, no nesting on the request
// side) and rejects everything else as `bad_request`.
//
// Verbs, their fields, and the full grammar are documented in
// docs/SERVE.md (lint-enforced: every verb in verb_docs() must appear
// there). Error codes are listed in error_code_docs() and docs/SERVE.md.
//
// Response bodies for `run` are built from the same writers as the
// ppf_batch JSON sink (runlab::write_metrics_json), so a daemon response
// and a batch results row for the same config carry byte-identical
// metrics objects — the property the memo cache and the diff harness
// both key on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppf::serve {

/// One parsed request line. `fields` holds every key as its raw string
/// value (numbers unconverted, strings unescaped).
struct Request {
  std::string verb;          ///< "run", "ping", "stats", "shutdown"
  std::uint64_t id = 0;      ///< client-chosen echo token (default 0)
  std::map<std::string, std::string> fields;  ///< remaining keys
};

/// Outcome of parsing one request line.
struct ParseResult {
  bool ok = false;
  Request req;
  std::string error;  ///< human-readable parse diagnostic when !ok
};

/// Parse one line as a request object. Accepts a flat JSON object whose
/// values are strings, unsigned integers, or booleans; requires an "op"
/// key naming the verb. Never throws.
[[nodiscard]] ParseResult parse_request(const std::string& line);

/// Serialize an error response: {"op":"error","id":N,"code":...,
/// "message":...}. `code` must be one of the documented error codes.
[[nodiscard]] std::string error_response(std::uint64_t id,
                                         const std::string& code,
                                         const std::string& message);

/// Serialize a pong response for `ping`.
[[nodiscard]] std::string pong_response(std::uint64_t id);

/// Serialize a result response around a memoizable body. The body is the
/// byte sequence starting at `"ok":` (see Service::run_body) so the memo
/// cache can splice it behind any id/cached prefix.
[[nodiscard]] std::string result_response(std::uint64_t id, bool cached,
                                          const std::string& body);

/// Protocol verb catalogue (the serve analogue of sim::config_schema).
/// ppf_analyze's serve-verb-docs rule checks each verb appears in
/// docs/SERVE.md.
struct VerbDoc {
  std::string verb;
  std::string help;
};
const std::vector<VerbDoc>& verb_docs();

/// Error-code catalogue, same documentation contract as verb_docs().
struct ErrorCodeDoc {
  std::string code;
  std::string help;
};
const std::vector<ErrorCodeDoc>& error_code_docs();

}  // namespace ppf::serve
