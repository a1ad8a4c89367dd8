// ppf::analyze — determinism taint pass.
//
// The repo's headline correctness claim — byte-identical results at any
// worker count, cold or snapshot path — rests on the simulation hot
// path never consulting a non-deterministic source. The
// no-wallclock-rand rule checks single lines; this pass upgrades it to
// reachability: build an approximate intra-project call graph, seed it
// with the hot-path roots, and flag any *reachable* function that
//
//   taint-wallclock       calls rand/srand/std::time/std::clock,
//                         gettimeofday, names random_device or
//                         system_clock (steady_clock stays sanctioned:
//                         it feeds telemetry only, never results)
//   taint-unordered-iter  iterates a std::unordered_* container
//                         (.begin()/.cbegin() or a range-for) — element
//                         order is implementation- and address-
//                         dependent, so any fold over it can fork
//   taint-ptr-hash        instantiates std::hash over a pointer type —
//                         address-dependent values leak into results
//
// Roots: every function overlapping a `// ppf:hot` region, plus any
// function with a `// ppf:taint-root` comment within the two lines
// above its definition. Calls resolve by unqualified name (an
// over-approximation — see docs/ANALYSIS.md for what that implies).
// A deliberate hazard is suppressed with `// ppf:taint-ok(<why>)` on
// the hazard's line.
#pragma once

#include <vector>

#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"

namespace ppf::analyze {

void check_taint(const Project& p, std::vector<Diagnostic>& out);

}  // namespace ppf::analyze
