#include "analyze/source_model.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace ppf::analyze {

namespace {

bool is_source_ext(const std::string& ext) {
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string top_dir_under_src(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return {};
  const std::size_t start = 4;
  const std::size_t slash = rel.find('/', start);
  if (slash == std::string::npos) return {};
  return rel.substr(start, slash - start);
}

void collect_hot_regions(SourceFile& f) {
  std::size_t open = 0;  // 0 = not in a hot region
  for (const Token& t : f.toks) {
    if (t.kind != TokKind::Comment) continue;
    if (t.text.find("ppf:hot") != std::string::npos) {
      if (open == 0) open = t.line;
    } else if (t.text.find("ppf:cold") != std::string::npos) {
      if (open != 0) {
        f.hot_regions.emplace_back(open, t.line);
        open = 0;
      }
    }
  }
  if (open != 0) {
    f.hot_regions.emplace_back(open, static_cast<std::size_t>(-1));
  }
}

/// Scope kinds for the heuristic parse.
enum class ScopeKind { Namespace, Class, Block };

struct Scope {
  ScopeKind kind;
  std::string name;
};

bool is_keyword_not_name(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "decltype" ||
         s == "alignof" || s == "alignas" || s == "static_assert" ||
         s == "noexcept" || s == "new" || s == "delete" || s == "throw";
}

}  // namespace

bool Project::contains_word(const std::string& text, const std::string& word) {
  for (std::size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

std::string Project::read_text(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<FunctionDef> index_functions(const SourceFile& f,
                                         std::size_t file_index) {
  std::vector<FunctionDef> out;
  const std::vector<Token>& toks = f.toks;
  std::vector<Scope> scopes;

  auto skip_trivia = [&](std::size_t i) {
    while (i < toks.size() && (toks[i].kind == TokKind::Comment ||
                               toks[i].kind == TokKind::Directive)) {
      ++i;
    }
    return i;
  };
  auto is_punct = [&](std::size_t i, const char* p) {
    return i < toks.size() && toks[i].kind == TokKind::Punct &&
           toks[i].text == p;
  };
  /// Index just past the brace/paren that matches the opener at `i`.
  auto skip_balanced = [&](std::size_t i, const char* open,
                           const char* close) {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Punct) continue;
      if (toks[i].text == open) ++depth;
      else if (toks[i].text == close && --depth == 0) return i + 1;
    }
    return i;
  };

  std::size_t i = 0;
  while (i < toks.size()) {
    i = skip_trivia(i);
    if (i >= toks.size()) break;
    const Token& t = toks[i];

    if (is_punct(i, "{")) {
      scopes.push_back({ScopeKind::Block, ""});
      ++i;
      continue;
    }
    if (is_punct(i, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }

    if (t.kind == TokKind::Ident && t.text == "namespace") {
      std::size_t j = skip_trivia(i + 1);
      std::string name;
      while (j < toks.size() && toks[j].kind == TokKind::Ident) {
        name += (name.empty() ? "" : "::") + toks[j].text;
        j = skip_trivia(j + 1);
        if (is_punct(j, "::")) j = skip_trivia(j + 1);
        else break;
      }
      if (is_punct(j, "{")) {
        scopes.push_back({ScopeKind::Namespace, name});
        i = j + 1;
        continue;
      }
      i = j;  // namespace alias / using — fall through
      continue;
    }

    if (t.kind == TokKind::Ident &&
        (t.text == "class" || t.text == "struct" || t.text == "union")) {
      // Find the name (last ident before '{', ':' base list, or ';').
      std::size_t j = skip_trivia(i + 1);
      std::string name;
      while (j < toks.size()) {
        if (toks[j].kind == TokKind::Ident) {
          if (toks[j].text != "final" && toks[j].text != "alignas") {
            name = toks[j].text;
          }
          j = skip_trivia(j + 1);
          continue;
        }
        if (is_punct(j, "<")) {  // template-id in a specialization
          j = skip_balanced(j, "<", ">");
          continue;
        }
        break;
      }
      if (is_punct(j, ":")) {  // base-class list: scan to the '{'
        while (j < toks.size() && !is_punct(j, "{") && !is_punct(j, ";")) {
          if (is_punct(j, "<")) j = skip_balanced(j, "<", ">");
          else ++j;
        }
      }
      if (is_punct(j, "{") && !name.empty()) {
        scopes.push_back({ScopeKind::Class, name});
        i = j + 1;
        continue;
      }
      i = i + 1;  // forward declaration or anonymous — keep scanning
      continue;
    }

    // Candidate function definition: [~] ident ['::' ident ...] '(' ...
    if ((t.kind == TokKind::Ident && !is_keyword_not_name(t.text)) ||
        is_punct(i, "~")) {
      std::size_t name_i = i;
      bool dtor = false;
      if (is_punct(i, "~")) {
        name_i = skip_trivia(i + 1);
        dtor = true;
        if (name_i >= toks.size() || toks[name_i].kind != TokKind::Ident) {
          ++i;
          continue;
        }
      }
      // Collect the qualified chain ending at the name. A template-id
      // qualifier (`OooCore<Mem>::cycle`) names its template.
      const auto skip_template_args = [&](std::size_t at) {
        if (!is_punct(at, "<")) return at;
        const std::size_t past = skip_trivia(skip_balanced(at, "<", ">"));
        return is_punct(past, "::") ? past : at;
      };
      std::vector<std::string> chain{toks[name_i].text};
      std::size_t j = skip_template_args(skip_trivia(name_i + 1));
      while (is_punct(j, "::")) {
        std::size_t k = skip_trivia(j + 1);
        bool k_dtor = false;
        if (is_punct(k, "~")) {
          k = skip_trivia(k + 1);
          k_dtor = true;
        }
        if (k < toks.size() && toks[k].kind == TokKind::Ident) {
          chain.push_back((k_dtor ? "~" : "") + toks[k].text);
          dtor = dtor || k_dtor;
          j = skip_template_args(skip_trivia(k + 1));
        } else {
          break;
        }
      }
      if (!is_punct(j, "(")) {
        ++i;
        continue;
      }
      const std::size_t after_parens = skip_balanced(j, "(", ")");
      // Skip declarator suffixes up to the body / terminator.
      std::size_t b = skip_trivia(after_parens);
      bool saw_arrow = false;
      while (b < toks.size()) {
        const Token& bt = toks[b];
        if (bt.kind == TokKind::Ident &&
            (bt.text == "const" || bt.text == "noexcept" ||
             bt.text == "override" || bt.text == "final" ||
             bt.text == "mutable" || bt.text == "volatile" ||
             bt.text == "try")) {
          b = skip_trivia(b + 1);
          continue;
        }
        if (is_punct(b, "&") || is_punct(b, "&&")) {
          b = skip_trivia(b + 1);
          continue;
        }
        if (is_punct(b, "(")) {  // noexcept(...)
          b = skip_trivia(skip_balanced(b, "(", ")"));
          continue;
        }
        if (is_punct(b, "->")) {  // trailing return type
          saw_arrow = true;
          b = skip_trivia(b + 1);
          continue;
        }
        if (saw_arrow && (bt.kind == TokKind::Ident || is_punct(b, "::") ||
                          is_punct(b, "*"))) {
          b = skip_trivia(b + 1);
          continue;
        }
        if (saw_arrow && is_punct(b, "<")) {
          b = skip_trivia(skip_balanced(b, "<", ">"));
          continue;
        }
        break;
      }
      bool has_body = is_punct(b, "{");
      if (!has_body && is_punct(b, ":")) {
        // Possible ctor-initializer list: the '{' at paren depth 0 ends
        // it. Bail at ';' (bitfields, labels, misparses).
        std::size_t k = b + 1;
        int pdepth = 0;
        while (k < toks.size()) {
          if (toks[k].kind == TokKind::Punct) {
            const std::string& p = toks[k].text;
            if (p == "(") ++pdepth;
            else if (p == ")") --pdepth;
            else if (p == "{" && pdepth == 0) break;
            else if (p == ";" && pdepth == 0) break;
          }
          ++k;
        }
        if (is_punct(k, "{")) {
          b = k;
          has_body = true;
        }
      }
      if (!has_body) {
        i = name_i + 1;
        continue;
      }
      const std::size_t body_open = b;
      const std::size_t body_close = skip_balanced(body_open, "{", "}");

      FunctionDef fd;
      fd.name = (dtor && chain.back()[0] != '~' ? "~" : "") + chain.back();
      fd.file = file_index;
      fd.tok_begin = body_open + 1;
      fd.tok_end = body_close > body_open ? body_close - 1 : body_open + 1;
      fd.line = toks[name_i].line;
      fd.body_end_line =
          body_close > 0 && body_close <= toks.size()
              ? toks[body_close - 1].line
              : toks.back().line;
      if (chain.size() > 1) {
        fd.class_name = chain[chain.size() - 2];
      } else {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          if (it->kind == ScopeKind::Class) {
            fd.class_name = it->name;
            break;
          }
        }
      }
      fd.qual = fd.class_name.empty() ? fd.name
                                      : fd.class_name + "::" + fd.name;
      std::string bare = fd.name[0] == '~' ? fd.name.substr(1) : fd.name;
      fd.ctor_dtor = !fd.class_name.empty() && bare == fd.class_name;
      out.push_back(fd);
      i = body_close;  // bodies are opaque to the scope scan
      continue;
    }

    ++i;
  }
  return out;
}

Project Project::load(const fs::path& root) {
  Project p;
  p.root = fs::weakly_canonical(root);

  std::vector<fs::path> paths;
  const fs::path src = p.root / "src";
  if (fs::exists(src)) {
    for (const auto& e : fs::recursive_directory_iterator(src)) {
      if (e.is_regular_file() && is_source_ext(e.path().extension().string()))
        paths.push_back(e.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  for (const fs::path& path : paths) {
    SourceFile f;
    f.rel = fs::relative(path, p.root).generic_string();
    f.dir = top_dir_under_src(f.rel);
    const std::string ext = path.extension().string();
    f.header = ext == ".hpp" || ext == ".h";
    f.toks = tokenize(read_text(path));
    collect_hot_regions(f);
    p.files.push_back(std::move(f));
  }

  for (std::size_t fi = 0; fi < p.files.size(); ++fi) {
    for (FunctionDef& fd : index_functions(p.files[fi], fi)) {
      p.funcs_by_name.emplace(fd.name, p.funcs.size());
      p.funcs.push_back(std::move(fd));
    }
  }

  p.docs_corpus = read_text(p.root / "README.md");
  const fs::path docs = p.root / "docs";
  if (fs::exists(docs)) {
    std::vector<fs::path> md;
    for (const auto& e : fs::directory_iterator(docs)) {
      if (e.is_regular_file() && e.path().extension() == ".md")
        md.push_back(e.path());
    }
    std::sort(md.begin(), md.end());
    for (const fs::path& d : md) p.docs_corpus += read_text(d);
  }
  return p;
}

const FunctionDef* Project::enclosing_function(std::size_t fi,
                                               std::size_t ti) const {
  const FunctionDef* best = nullptr;
  for (const FunctionDef& fd : funcs) {
    if (fd.file != fi) continue;
    if (ti < fd.tok_begin || ti >= fd.tok_end) continue;
    // Innermost wins (local helpers are not indexed, so spans only nest
    // via misparse; prefer the tightest).
    if (best == nullptr || fd.tok_begin > best->tok_begin) best = &fd;
  }
  return best;
}

}  // namespace ppf::analyze
