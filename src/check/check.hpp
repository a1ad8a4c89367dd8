// ppf::check — structural invariant checking for the simulator.
//
// ppf::obs (PR 3) observes what the machine *did*; ppf::check proves the
// machine state *is well formed* while it runs. Every component exposes a
// `register_checks(CheckRegistry&, prefix)` hook — the exact shape of the
// `register_obs` hook — that registers closures inspecting its private
// state: SoA arrays stay parallel, RIB implies PIB, 2-bit counters stay
// in [0, 3], ROB ring arithmetic balances, and the classifier's
// conservation law (issued == good + bad + still-unclassified) holds.
//
// Modes (SimConfig::check.mode, `check=` knob):
//   off      — no Checker is created; the hierarchy pays one null-pointer
//              test per cycle. Default. Simulation output is byte-for-byte
//              identical to a checked run (checks never mutate state).
//   final    — one sweep at finalize time.
//   paranoid — a sweep every `check_period` cycles plus the final sweep.
//
// A violated invariant produces a structured CheckFailure (component
// path, invariant ID, cycle, message) and, by default, throws
// CheckViolation — which ppf_sim turns into a non-zero exit and the
// runlab runner turns into a failed-job record. Tests can switch the
// Checker to collect mode and inspect failures() instead.
//
// Like obs, the check config is deliberately excluded from
// sim::warmup_key: checks never shape simulated machine state, so warm
// snapshots are shared across check settings.
//
// Invariant IDs are stable, documented strings (docs/CHECKING.md);
// ppf_analyze fails the tree if an ID used in code is undocumented.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ppf::check {

enum class CheckMode : std::uint8_t { Off, Final, Paranoid };

[[nodiscard]] const char* to_string(CheckMode m);

/// Checking knobs, carried inside SimConfig (excluded from warmup_key —
/// see file comment).
struct CheckConfig {
  CheckMode mode = CheckMode::Off;
  /// Cycles between paranoid sweeps (ignored in other modes).
  std::uint64_t period = 10'000;
  /// Test tripwire: when non-zero, the checker itself reports a
  /// `checker.tripwire` violation at the first sweep at or after this
  /// cycle. Lets end-to-end tests prove the reporting path without
  /// corrupting real component state.
  Cycle fail_at = 0;
};

/// One violated invariant: which component instance, which documented
/// invariant, when, and a human-readable explanation.
struct CheckFailure {
  std::string component;  ///< instance path, e.g. "l1d" or "hier"
  std::string invariant;  ///< stable ID, e.g. "cache.rib_implies_pib"
  Cycle cycle = 0;        ///< simulated cycle of the failing sweep
  std::string message;    ///< details: indices, values, expectations

  [[nodiscard]] std::string format() const;
};

/// Thrown (in abort mode, the default) on the first violated invariant.
class CheckViolation : public std::runtime_error {
 public:
  explicit CheckViolation(CheckFailure f);
  [[nodiscard]] const CheckFailure& failure() const { return failure_; }

 private:
  CheckFailure failure_;
};

/// Handed to every check closure; carries the sweep cycle and collects
/// failures on behalf of the component the closure was registered under.
class CheckContext {
 public:
  [[nodiscard]] Cycle cycle() const { return cycle_; }

  /// Report a violation of `invariant` (see docs/CHECKING.md for IDs).
  void fail(std::string_view invariant, std::string message);

  /// Report unless `ok`; `msg` is only invoked on failure so sweeps pay
  /// nothing for string formatting on the healthy path.
  template <typename MsgFn>
  void require(bool ok, std::string_view invariant, MsgFn&& msg) {
    if (!ok) fail(invariant, std::forward<MsgFn>(msg)());
  }

 private:
  friend class CheckRegistry;
  CheckContext(const std::string* component, Cycle cycle,
               std::vector<CheckFailure>* out)
      : component_(component), cycle_(cycle), out_(out) {}

  const std::string* component_;
  Cycle cycle_;
  std::vector<CheckFailure>* out_;
};

/// Ordered collection of named check closures. Components register into
/// it from their `register_checks(reg, prefix)` hooks; registration
/// order is deterministic (hierarchy wiring order), so failure order is
/// too.
class CheckRegistry {
 public:
  using CheckFn = std::function<void(CheckContext&)>;

  /// Register one closure under a component instance path.
  void add(std::string component, CheckFn fn);

  [[nodiscard]] std::size_t size() const { return checks_.size(); }

  /// Run every closure for the sweep at `now`, appending violations.
  void run(Cycle now, std::vector<CheckFailure>& out) const;

 private:
  std::vector<std::pair<std::string, CheckFn>> checks_;
};

/// Per-run checker, mirroring obs::Recorder's lifecycle: created by
/// Simulator::run / run_from_snapshot when check.mode != off, attached
/// to the hierarchy (which registers component checks and calls tick
/// once per cycle) and swept a final time at finalize.
class Checker {
 public:
  explicit Checker(const CheckConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] CheckRegistry& registry() { return registry_; }
  [[nodiscard]] const CheckConfig& config() const { return cfg_; }
  [[nodiscard]] bool paranoid() const {
    return cfg_.mode == CheckMode::Paranoid;
  }

  /// Abort mode (default true): throw CheckViolation on the first
  /// failure of a sweep. Collect mode (tests): accumulate in failures().
  void set_abort_on_failure(bool abort) { abort_on_failure_ = abort; }

  /// Once per simulated cycle, from MemoryHierarchy::end_cycle. Runs a
  /// sweep when the paranoid cadence is due; always remembers `now` so
  /// the final sweep carries the last simulated cycle.
  void tick(Cycle now) {
    last_cycle_ = now;
    if (paranoid() && now >= next_sweep_) sweep(now);
  }

  /// Run every registered check once, at cycle `now`.
  void sweep(Cycle now);

  [[nodiscard]] Cycle last_cycle() const { return last_cycle_; }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  [[nodiscard]] const std::vector<CheckFailure>& failures() const {
    return failures_;
  }

 private:
  CheckConfig cfg_;
  CheckRegistry registry_;
  bool abort_on_failure_ = true;
  Cycle next_sweep_ = 0;  ///< 0: first paranoid tick sweeps immediately
  Cycle last_cycle_ = 0;
  std::uint64_t sweeps_ = 0;
  std::vector<CheckFailure> failures_;
};

}  // namespace ppf::check
