// ppf::diff — byte-exact run signatures.
//
// Differential oracles compare paired runs by serializing every
// deterministic field of a SimResult (and, when present, the obs
// aggregates) into one canonical string and diffing the strings
// byte-for-byte. A mismatch report names the first differing line, so a
// divergence points straight at the counter that moved.
#pragma once

#include <string>

#include "sim/simulator.hpp"

namespace ppf::diff {

/// What the signature covers.
struct SignatureOptions {
  /// Include the RunObservation aggregates (event counts, time-series
  /// rows, final metrics). Off for pairings where exactly one side
  /// observes (diff.obs_invisible compares the simulation fields only).
  bool include_observation = true;
};

/// Canonical one-line-per-field serialization of `r`. Deterministic:
/// fixed field order, fixed integer formatting, doubles via "%.17g"
/// (round-trip exact).
std::string result_signature(const sim::SimResult& r,
                             const SignatureOptions& opts = {});

/// First line present in exactly one signature, or differing between
/// them, formatted "field: lhs=... rhs=..."; empty when equal. The
/// line-oriented format of result_signature makes this the whole diff
/// algorithm.
std::string first_divergence(const std::string& lhs, const std::string& rhs);

/// Byte-exact serialization of everything that shapes a run's
/// *deterministic result*: the benchmark, the full warmup-relevant
/// machine (sim::warmup_key), the measurement window, the energy prices,
/// and the diff_fail_at fault hook (it decides error-vs-result). Two
/// configs with equal config_signature produce byte-identical SimResult
/// payloads, so this is the sweep-as-a-service memo-cache key
/// (src/serve/memo.hpp). Observability and invariant-check knobs are
/// deliberately excluded — obs=/check= settings never move a counter
/// (guarded by the diff.obs_invisible / diff.check_off_vs_paranoid
/// oracles), so they must not fork memo entries.
std::string config_signature(const sim::SimConfig& cfg,
                             const std::string& benchmark);

/// 16-hex-digit digest of `bytes`: FNV-1a, then the common/hash.hpp
/// mix64 finalizer. Stable across processes and builds.
std::string digest_hex(const std::string& bytes);

/// digest_hex of config_signature. Collision-safe enough for telemetry
/// labels; the memo cache keys on the full string, never the digest.
std::string config_digest(const sim::SimConfig& cfg,
                          const std::string& benchmark);

}  // namespace ppf::diff
