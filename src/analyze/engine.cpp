#include "analyze/engine.hpp"

#include <algorithm>

#include "analyze/catalogs.hpp"
#include "analyze/conventions.hpp"
#include "analyze/layers.hpp"
#include "analyze/locks.hpp"
#include "analyze/source_model.hpp"
#include "analyze/taint.hpp"

namespace ppf::analyze {

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      // conventions
      {"no-bare-assert",
       "use PPF_ASSERT/PPF_CHECK (common/assert.hpp), not assert()/<cassert>"},
      {"no-wallclock-rand",
       "no rand/srand/std::time/random_device/system_clock in src/"},
      {"obs-check-parity",
       "headers declaring register_obs must also declare register_checks"},
      {"obs-event-bookkeeping",
       "classifier-shaped PPF_OBS_EVENT probes need the matching record_* "
       "call within 8 lines"},
      {"hot-loop-no-virtual",
       "no `virtual` or abstract-interface calls inside // ppf:hot regions"},
      {"kind-switch-exhaustive",
       "kind-to-string switches must assert/throw on the fall-through path "
       "so a new enumerator cannot stringify silently"},
      // unified catalogs
      {"config-key-docs",
       "every config_schema() key must appear in docs/*.md or README.md"},
      {"invariant-id-docs",
       "invariant IDs at require()/fail()/CheckFailure sites must appear in "
       "docs/CHECKING.md"},
      {"diff-oracle-docs",
       "diff.* oracle IDs in src/diff must appear in docs/DIFF.md"},
      {"serve-verb-docs",
       "serve protocol verbs and error codes must appear in docs/SERVE.md"},
      {"span-name-docs",
       "every span name in obs::span_name_docs() must appear in "
       "docs/OBSERVABILITY.md"},
      // include-layer DAG
      {"layer-undeclared",
       "every src/ top directory on an include edge must be declared in "
       "docs/LAYERS.md"},
      {"layer-forbidden-edge",
       "includes may only cross layers docs/LAYERS.md allows"},
      {"layer-cycle", "the file-level include graph must be acyclic"},
      // determinism taint
      {"taint-wallclock",
       "no wall-clock/rand source reachable from the simulation hot path"},
      {"taint-unordered-iter",
       "no std::unordered_* iteration reachable from the simulation hot "
       "path (iteration order is address-dependent)"},
      {"taint-ptr-hash",
       "no std::hash over pointer types reachable from the simulation hot "
       "path"},
      // lock discipline
      {"lock-unguarded-field",
       "fields annotated // PPF_GUARDED_BY(m) are only touched with m held"},
      {"lock-unknown-mutex",
       "PPF_GUARDED_BY must name a mutex the file declares"},
  };
  return rules;
}

std::vector<Diagnostic> analyze_tree(const std::filesystem::path& root,
                                     const std::set<std::string>& only) {
  const Project p = Project::load(root);
  const LayerSpec spec =
      parse_layer_spec(Project::read_text(root / "docs" / "LAYERS.md"));

  std::vector<Diagnostic> out;
  check_conventions(p, out);
  check_catalogs(p, out);
  check_layers(p, spec, out);
  check_taint(p, out);
  check_locks(p, out);

  if (!only.empty()) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Diagnostic& d) {
                               return only.count(d.rule) == 0;
                             }),
              out.end());
  }
  sort_diagnostics(out);
  return out;
}

}  // namespace ppf::analyze
