// ppf::analyze — token model for the project-wide static analysis pass.
//
// The analyzer is deliberately NOT a libclang tool: it must build and
// run anywhere the simulator builds, with zero extra dependencies
// (std::filesystem + iostreams only). What it gains over line regexes
// is a real lexical model: every rule sees
// a stream of identifiers, literals, punctuation, comments, and folded
// preprocessor directives with exact file:line:col positions — so a
// string containing "rand()" is data, a wrapped catalogue entry is one
// entry, and a `#if 0` region is invisible, all without a rule having
// to re-derive any of that per line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ppf::analyze {

enum class TokKind {
  Ident,      ///< identifier or keyword (rules distinguish by text)
  Number,     ///< integral / floating literal, including ' separators
  String,     ///< string literal; text holds the *contents* (no quotes)
  CharLit,    ///< character literal; text holds the contents
  Punct,      ///< operator / punctuator, longest-match ("->", "::", ...)
  Directive,  ///< whole preprocessor directive, continuations folded
  Comment,    ///< // or /* */ comment, text includes the delimiters
};

struct Token {
  TokKind kind = TokKind::Punct;
  std::string text;
  std::size_t line = 0;  ///< 1-based physical line of the first char
  std::size_t col = 0;   ///< 1-based column of the first char
};

/// True for [A-Za-z0-9_].
inline bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Tokenize one translation unit's text. Handles: // and /* */ comments
/// (kept as Comment tokens — annotations like PPF_GUARDED_BY live
/// there), string/char literals with escapes, raw strings R"delim(...)",
/// preprocessor directives with backslash-newline continuations folded
/// into a single Directive token, `#if 0` ... `#else/#elif/#endif`
/// regions dropped entirely, and CRLF / lone-CR line endings.
std::vector<Token> tokenize(const std::string& text);

}  // namespace ppf::analyze
