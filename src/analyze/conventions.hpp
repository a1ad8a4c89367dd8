// ppf::analyze — project-convention rules (the token-stream rules that
// are not catalogue checks).
//
//   no-bare-assert        C assert()/<cassert> bypass the PPF_ASSERT
//                         ladder (common/assert.hpp).
//   no-wallclock-rand     rand()/srand()/std::time()/random_device/
//                         system_clock in src/ break run determinism
//                         (steady_clock stays allowed — telemetry only).
//   obs-check-parity      a header declaring a register_obs hook must
//                         also declare register_checks.
//   obs-event-bookkeeping a PPF_OBS_EVENT probe for a classifier-shaped
//                         lifecycle kind must sit within 8 lines of the
//                         matching classifier record_* call.
//   hot-loop-no-virtual   no `virtual` and no calls through
//                         abstract-interface handles inside // ppf:hot
//                         regions.
//
// Rule IDs, messages, and firing sites match the regex originals so
// tests/lint/fixtures and muscle memory carry over; operating on tokens
// means string literals and comments can no longer produce false fires.
#pragma once

#include <vector>

#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"

namespace ppf::analyze {

void check_conventions(const Project& p, std::vector<Diagnostic>& out);

}  // namespace ppf::analyze
