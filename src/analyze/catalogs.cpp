#include "analyze/catalogs.hpp"

#include <string>

namespace ppf::analyze {

namespace {

struct CatalogEntry {
  std::string text;
  std::size_t line = 0;
  std::size_t col = 0;
};

const SourceFile* find_file(const Project& p, const std::string& rel) {
  for (const SourceFile& f : p.files) {
    if (f.rel == rel) return &f;
  }
  return nullptr;
}

/// First string literal of each top-level `{...}` entry inside the
/// first brace initializer of `fn_name`'s body in `f`. This is the
/// shape every ppf catalogue uses:
///   static const std::vector<Doc> docs = { {"name", "help"}, ... };
std::vector<CatalogEntry> collect_catalog(const Project& p,
                                          const SourceFile& f,
                                          const std::string& fn_name) {
  std::vector<CatalogEntry> out;
  const FunctionDef* fn = nullptr;
  for (const FunctionDef& fd : p.funcs) {
    if (&p.files[fd.file] == &f && fd.name == fn_name) {
      fn = &fd;
      break;
    }
  }
  if (fn == nullptr) return out;
  const std::vector<Token>& toks = f.toks;
  // Find `= {` inside the body, then walk entries at depth 1.
  std::size_t i = fn->tok_begin;
  for (; i < fn->tok_end; ++i) {
    if (toks[i].kind == TokKind::Punct && toks[i].text == "=" &&
        i + 1 < fn->tok_end && toks[i + 1].kind == TokKind::Punct &&
        toks[i + 1].text == "{")
      break;
  }
  if (i >= fn->tok_end) return out;
  int depth = 0;
  bool entry_open = false;
  for (std::size_t j = i + 1; j < fn->tok_end; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::Punct) {
      if (t.text == "{") {
        ++depth;
        if (depth == 2) entry_open = true;
      } else if (t.text == "}") {
        if (depth == 2) entry_open = false;
        if (--depth == 0) break;
      }
      continue;
    }
    if (entry_open && t.kind == TokKind::String) {
      out.push_back({t.text, t.line, t.col});
      entry_open = false;  // only the first string per entry is the key
    }
  }
  return out;
}

bool is_dotted_id(const std::string& s) {
  if (s.empty() || !(s[0] >= 'a' && s[0] <= 'z')) return false;
  bool has_dot = false;
  char prev = '\0';
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '.') {
      if (prev == '.' || prev == '\0') return false;
      has_dot = true;
    }
    prev = c;
  }
  return has_dot && prev != '.';
}

bool matching_close(const std::string& open, const std::string& tok,
                    int& depth) {
  const std::string close = open == "(" ? ")" : "}";
  if (tok == open) ++depth;
  else if (tok == close) --depth;
  return depth == 0;
}

}  // namespace

void check_catalogs(const Project& p, std::vector<Diagnostic>& out) {
  const std::string checking_md =
      Project::read_text(p.root / "docs" / "CHECKING.md");
  const std::string diff_md = Project::read_text(p.root / "docs" / "DIFF.md");
  const std::string serve_md =
      Project::read_text(p.root / "docs" / "SERVE.md");
  const std::string obs_md =
      Project::read_text(p.root / "docs" / "OBSERVABILITY.md");

  // --- config override keys -> README.md + docs/*.md --------------------
  // The key rows of sim::config_schema() are brace entries led by the
  // key; the rows with no key are PPF_WARM(...) calls, which the
  // extractor skips.
  if (const SourceFile* f = find_file(p, "src/sim/config_apply.cpp")) {
    for (const CatalogEntry& e : collect_catalog(p, *f, "config_schema")) {
      if (!Project::contains_word(p.docs_corpus, e.text)) {
        out.push_back({"config-key-docs", f->rel, e.line, e.col,
                       "override key '" + e.text +
                           "' not documented in docs/*.md or README.md",
                       "document the key in docs/CONFIG.md"});
      }
    }
  }

  // --- registry policy keys -> README.md + docs/*.md --------------------
  // The registry's builtin doc tables are catalogues too: every policy a
  // user can name in filter=/prefetchers=/replacement= must appear in the
  // docs corpus, so registering a policy without documenting it fails
  // the same way an undocumented override key does.
  if (const SourceFile* f = find_file(p, "src/registry/builtin.cpp")) {
    const struct {
      const char* fn;
      const char* what;
    } tables[] = {{"builtin_filter_docs", "filter"},
                  {"builtin_prefetcher_docs", "prefetcher"},
                  {"builtin_replacement_docs", "replacement policy"}};
    for (const auto& table : tables) {
      for (const CatalogEntry& e : collect_catalog(p, *f, table.fn)) {
        if (!Project::contains_word(p.docs_corpus, e.text)) {
          out.push_back({"config-key-docs", f->rel, e.line, e.col,
                         "registry " + std::string(table.what) + " key '" +
                             e.text +
                             "' not documented in docs/*.md or README.md",
                         "document the key in docs/PLUGINS.md"});
        }
      }
    }
  }

  // --- serve verbs + error codes -> docs/SERVE.md -----------------------
  if (const SourceFile* f = find_file(p, "src/serve/protocol.cpp")) {
    const struct {
      const char* fn;
      const char* what;
    } tables[] = {{"verb_docs", "verb"}, {"error_code_docs", "error code"}};
    for (const auto& table : tables) {
      for (const CatalogEntry& e : collect_catalog(p, *f, table.fn)) {
        if (!Project::contains_word(serve_md, e.text)) {
          out.push_back({"serve-verb-docs", f->rel, e.line, e.col,
                         "protocol " + std::string(table.what) + " '" +
                             e.text + "' not documented in docs/SERVE.md",
                         "document it in the docs/SERVE.md protocol "
                         "tables"});
        }
      }
    }
  }

  // --- span names -> docs/OBSERVABILITY.md ------------------------------
  if (const SourceFile* f = find_file(p, "src/obs/span.cpp")) {
    for (const CatalogEntry& e : collect_catalog(p, *f, "span_name_docs")) {
      if (!Project::contains_word(obs_md, e.text)) {
        out.push_back({"span-name-docs", f->rel, e.line, e.col,
                       "span name '" + e.text +
                           "' not documented in docs/OBSERVABILITY.md",
                       "document it in the docs/OBSERVABILITY.md span "
                       "catalogue"});
      }
    }
  }

  for (const SourceFile& f : p.files) {
    const std::vector<Token>& toks = f.toks;

    // --- invariant IDs at require()/fail()/CheckFailure sites -----------
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Ident) continue;
      std::string open;
      if ((t.text == "require" || t.text == "fail") && i + 1 < toks.size() &&
          toks[i + 1].kind == TokKind::Punct && toks[i + 1].text == "(") {
        open = "(";
      } else if (t.text == "CheckFailure" && i + 1 < toks.size() &&
                 toks[i + 1].kind == TokKind::Punct &&
                 toks[i + 1].text == "{") {
        open = "{";
      } else {
        continue;
      }
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind == TokKind::Punct &&
            matching_close(open, toks[j].text, depth))
          break;
        // Convention: the ID literal sits on the site line or within
        // the next two (continuation) lines — later strings are
        // human-readable message text, not IDs.
        if (toks[j].line > t.line + 2) break;
        if (toks[j].kind == TokKind::String && is_dotted_id(toks[j].text) &&
            checking_md.find(toks[j].text) == std::string::npos) {
          out.push_back({"invariant-id-docs", f.rel, toks[j].line,
                         toks[j].col,
                         "invariant ID \"" + toks[j].text +
                             "\" not documented in docs/CHECKING.md",
                         "add the invariant to the docs/CHECKING.md "
                         "catalogue"});
        }
      }
    }

    // --- diff oracle IDs in src/diff -> docs/DIFF.md ---------------------
    if (f.rel.rfind("src/diff/", 0) == 0) {
      for (const Token& t : toks) {
        if (t.kind != TokKind::String) continue;
        if (t.text.rfind("diff.", 0) != 0 || !is_dotted_id(t.text)) continue;
        if (diff_md.find(t.text) == std::string::npos) {
          out.push_back({"diff-oracle-docs", f.rel, t.line, t.col,
                         "oracle ID \"" + t.text +
                             "\" not documented in docs/DIFF.md",
                         "add the oracle to the docs/DIFF.md catalogue"});
        }
      }
    }
  }
}

}  // namespace ppf::analyze
