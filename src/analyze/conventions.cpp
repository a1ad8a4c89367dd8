#include "analyze/conventions.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace ppf::analyze {

namespace {

bool next_is(const std::vector<Token>& toks, std::size_t i,
             const char* punct) {
  std::size_t j = i + 1;
  while (j < toks.size() && toks[j].kind == TokKind::Comment) ++j;
  return j < toks.size() && toks[j].kind == TokKind::Punct &&
         toks[j].text == punct;
}

const Token* prev_code(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t k = i; k-- > 0;) {
    if (toks[k].kind != TokKind::Comment) return &toks[k];
  }
  return nullptr;
}

// --- no-bare-assert --------------------------------------------------------

void check_bare_assert(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (f.rel == "src/common/assert.hpp") return;  // the ladder itself
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const Token& t = f.toks[i];
    if (t.kind == TokKind::Directive &&
        t.text.find("<cassert>") != std::string::npos) {
      out.push_back({"no-bare-assert", f.rel, t.line, t.col,
                     "<cassert> included; use common/assert.hpp",
                     "include common/assert.hpp instead"});
    }
    if (t.kind != TokKind::Ident || t.text != "assert" ||
        !next_is(f.toks, i, "("))
      continue;
    // `foo.assert(`, `x->assert(`, `ns::assert(` are someone else's
    // assert — the regex original excluded those too.
    const Token* prev = prev_code(f.toks, i);
    if (prev != nullptr && prev->kind == TokKind::Punct &&
        (prev->text == "." || prev->text == "->" || prev->text == "::"))
      continue;
    out.push_back({"no-bare-assert", f.rel, t.line, t.col,
                   "bare assert(); use PPF_ASSERT/PPF_CHECK",
                   "PPF_ASSERT keeps the message and the release-mode "
                   "expression type-check"});
  }
}

// --- no-wallclock-rand -----------------------------------------------------

void check_wallclock_rand(const SourceFile& f, std::vector<Diagnostic>& out) {
  constexpr const char* kMsg =
      "non-deterministic source; use common/random.hpp "
      "(steady_clock is fine for telemetry)";
  constexpr const char* kHint =
      "seeded randomness lives in common/random.hpp; wall-clock reads "
      "belong off the simulated path";
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const Token& t = f.toks[i];
    if (t.kind != TokKind::Ident) continue;
    if (t.text == "random_device" || t.text == "system_clock") {
      out.push_back({"no-wallclock-rand", f.rel, t.line, t.col, kMsg, kHint});
      continue;
    }
    if (!next_is(f.toks, i, "(")) continue;
    if (t.text == "rand" || t.text == "srand") {
      // `obj.rand(` / `ns::rand(` is not libc rand — except std::rand.
      const Token* prev = prev_code(f.toks, i);
      if (prev != nullptr && prev->kind == TokKind::Punct &&
          (prev->text == "." || prev->text == "->"))
        continue;
      if (prev != nullptr && prev->kind == TokKind::Punct &&
          prev->text == "::") {
        const Token* ns = i >= 2 ? prev_code(f.toks, i - 1) : nullptr;
        if (ns == nullptr || ns->kind != TokKind::Ident ||
            ns->text != "std")
          continue;
      }
      out.push_back({"no-wallclock-rand", f.rel, t.line, t.col, kMsg, kHint});
    } else if (t.text == "time") {
      const Token* prev = prev_code(f.toks, i);
      if (prev == nullptr || prev->kind != TokKind::Punct ||
          prev->text != "::")
        continue;
      const Token* ns = i >= 2 ? prev_code(f.toks, i - 1) : nullptr;
      if (ns != nullptr && ns->kind == TokKind::Ident && ns->text == "std") {
        out.push_back(
            {"no-wallclock-rand", f.rel, t.line, t.col, kMsg, kHint});
      }
    }
  }
}

// --- obs-check-parity ------------------------------------------------------

void check_obs_parity(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (!f.header) return;
  std::size_t obs_line = 0;
  std::size_t obs_col = 0;
  bool has_checks = false;
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const Token& t = f.toks[i];
    if (t.kind != TokKind::Ident || !next_is(f.toks, i, "(")) continue;
    if (obs_line == 0 && t.text == "register_obs") {
      obs_line = t.line;
      obs_col = t.col;
    }
    if (t.text == "register_checks") has_checks = true;
  }
  if (obs_line != 0 && !has_checks) {
    out.push_back({"obs-check-parity", f.rel, obs_line, obs_col,
                   "register_obs declared without register_checks",
                   "observable components are checkable components: "
                   "declare register_checks alongside"});
  }
}

// --- obs-event-bookkeeping -------------------------------------------------

void check_event_bookkeeping(const SourceFile& f,
                             std::vector<Diagnostic>& out) {
  if (f.rel.rfind("src/obs/", 0) == 0) return;  // the macro's own home
  static const std::map<std::string, std::string> pair = {
      {"Issued", "record_issued"},
      {"Filtered", "record_filtered"},
      {"Squashed", "record_squashed"},
      {"EvictReferenced", "record_outcome"},
      {"EvictDead", "record_outcome"},
  };
  constexpr std::size_t kWindow = 8;
  const std::vector<Token>& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || toks[i].text != "PPF_OBS_EVENT" ||
        !next_is(toks, i, "("))
      continue;
    // Walk the balanced argument list for EventKind::<kind>.
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == TokKind::Punct) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")" && --depth == 0) break;
        continue;
      }
      if (toks[j].kind != TokKind::Ident) continue;
      const Token* prev = prev_code(toks, j);
      const Token* ns = j >= 2 ? prev_code(toks, j - 1) : nullptr;
      if (prev == nullptr || prev->kind != TokKind::Punct ||
          prev->text != "::" || ns == nullptr ||
          ns->kind != TokKind::Ident || ns->text != "EventKind")
        continue;
      const auto it = pair.find(toks[j].text);
      if (it == pair.end()) continue;
      const std::string& record = it->second;
      const std::size_t lo =
          toks[i].line >= kWindow ? toks[i].line - kWindow : 1;
      const std::size_t hi = toks[i].line + kWindow;
      bool found = false;
      for (std::size_t k = 0; k < toks.size() && !found; ++k) {
        found = toks[k].kind == TokKind::Ident && toks[k].text == record &&
                toks[k].line >= lo && toks[k].line <= hi &&
                next_is(toks, k, "(");
      }
      if (!found) {
        out.push_back({"obs-event-bookkeeping", f.rel, toks[i].line,
                       toks[i].col,
                       "EventKind::" + toks[j].text +
                           " probe without nearby classifier " + record +
                           "() call",
                       "keep the obs stream and the classifier counters "
                       "in lockstep: call " + record +
                           "() within 8 lines of the probe"});
      }
    }
  }
}

// --- kind-switch-exhaustive ------------------------------------------------

bool is_switch_guard(const std::string& s) {
  return s.rfind("PPF_ASSERT", 0) == 0 || s.rfind("PPF_CHECK", 0) == 0 ||
         s == "throw";
}

/// A switch that maps a kind to string literals (two or more
/// `return "..."` arms) must not be able to fall off the end silently:
/// either an arm (typically `default:`) asserts/throws, or an
/// assert/throw follows the closing brace before the enclosing function
/// ends. Without that, adding an enumerator compiles clean and the new
/// kind quietly stringifies as whatever the fallback return says.
void check_kind_switch(const SourceFile& f, std::vector<Diagnostic>& out) {
  const std::vector<Token>& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || toks[i].text != "switch" ||
        !next_is(toks, i, "("))
      continue;
    // Balanced condition parens, then the `{` that opens the body.
    std::size_t j = i + 1;
    int pd = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::Punct) continue;
      if (toks[j].text == "(") ++pd;
      else if (toks[j].text == ")" && --pd == 0) {
        ++j;
        break;
      }
    }
    while (j < toks.size() && toks[j].kind == TokKind::Comment) ++j;
    if (j >= toks.size() || toks[j].kind != TokKind::Punct ||
        toks[j].text != "{")
      continue;
    int bd = 0;
    std::size_t body_end = toks.size();
    std::size_t string_returns = 0;
    bool guarded = false;
    for (std::size_t k = j; k < toks.size(); ++k) {
      if (toks[k].kind == TokKind::Punct) {
        if (toks[k].text == "{") ++bd;
        else if (toks[k].text == "}" && --bd == 0) {
          body_end = k;
          break;
        }
        continue;
      }
      if (toks[k].kind != TokKind::Ident) continue;
      if (toks[k].text == "return" && k + 1 < toks.size() &&
          toks[k + 1].kind == TokKind::String)
        ++string_returns;
      if (is_switch_guard(toks[k].text)) guarded = true;
    }
    if (string_returns < 2) continue;  // not a kind-to-string mapping
    // The fall-through path: up to the enclosing function's closing
    // brace (a short, fixed window keeps the scan local).
    constexpr std::size_t kWindow = 16;
    for (std::size_t k = body_end + 1;
         !guarded && k < toks.size() && k < body_end + 1 + kWindow; ++k) {
      if (toks[k].kind == TokKind::Punct && toks[k].text == "}") break;
      if (toks[k].kind == TokKind::Ident && is_switch_guard(toks[k].text))
        guarded = true;
    }
    if (!guarded) {
      out.push_back({"kind-switch-exhaustive", f.rel, toks[i].line,
                     toks[i].col,
                     "kind-to-string switch can fall off the end silently "
                     "when an enumerator is added",
                     "cover every enumerator, then PPF_ASSERT_MSG(false, "
                     "...) (or a default: that asserts) before the "
                     "fallback return"});
    }
  }
}

// --- hot-loop-no-virtual ---------------------------------------------------

bool is_iface_type(const std::string& s) {
  return s == "DataMemory" || s == "InstMemory" || s == "TraceSource" ||
         s == "Prefetcher" || s == "PollutionFilter" || s == "CoreEngine";
}

void check_hot_loop_virtual(const SourceFile& f,
                            std::vector<Diagnostic>& out) {
  if (f.hot_regions.empty()) return;
  const std::vector<Token>& toks = f.toks;

  // Pass 1: handles — variables declared `<Iface> [&*] name` anywhere in
  // the file (members, parameters, locals).
  std::set<std::string> handles;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || !is_iface_type(toks[i].text))
      continue;
    std::size_t j = i + 1;
    while (j < toks.size() && toks[j].kind == TokKind::Comment) ++j;
    if (j >= toks.size() || toks[j].kind != TokKind::Punct ||
        (toks[j].text != "&" && toks[j].text != "*"))
      continue;
    ++j;
    while (j < toks.size() && toks[j].kind == TokKind::Comment) ++j;
    if (j < toks.size() && toks[j].kind == TokKind::Ident)
      handles.insert(toks[j].text);
  }

  // Pass 2: inside hot regions, flag `virtual` and `handle.` / `handle->`.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Ident || !f.line_is_hot(t.line)) continue;
    if (t.text == "virtual") {
      out.push_back({"hot-loop-no-virtual", f.rel, t.line, t.col,
                     "`virtual` declared inside a ppf:hot region",
                     "hot-path calls must devirtualize; move the "
                     "declaration out of the region or mark the slow "
                     "path // ppf:cold"});
      continue;
    }
    if (handles.count(t.text) == 0) continue;
    std::size_t j = i + 1;
    while (j < toks.size() && toks[j].kind == TokKind::Comment) ++j;
    if (j < toks.size() && toks[j].kind == TokKind::Punct &&
        (toks[j].text == "." || toks[j].text == "->")) {
      out.push_back(
          {"hot-loop-no-virtual", f.rel, t.line, t.col,
           "call through abstract interface handle '" + t.text +
               "' inside a ppf:hot region (devirtualize or mark the "
               "slow path // ppf:cold)",
           "the stage kernels' speed rests on concrete "
           "calls in the cycle loop"});
    }
  }
}

}  // namespace

void check_conventions(const Project& p, std::vector<Diagnostic>& out) {
  for (const SourceFile& f : p.files) {
    check_bare_assert(f, out);
    check_wallclock_rand(f, out);
    check_obs_parity(f, out);
    check_event_bookkeeping(f, out);
    check_kind_switch(f, out);
    check_hot_loop_virtual(f, out);
  }
}

}  // namespace ppf::analyze
