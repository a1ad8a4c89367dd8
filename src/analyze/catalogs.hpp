// ppf::analyze — unified catalogs pass.
//
// The repo keeps several self-describing catalogues whose entries users
// see in CLIs, violation reports, and the serve protocol: config
// override keys (sim::config_schema), serve verbs and error codes
// (serve::verb_docs / error_code_docs), obs span names
// (obs::span_name_docs), invariant IDs (ctx.require/fail +
// CheckFailure sites), and diff oracle IDs ("diff.*" literals in
// src/diff). Each entry must be documented word-for-word in its home
// doc. One symbol-table-backed extractor over the token stream checks
// them all — catalogue entries are (definition site, identifier,
// home doc) triples, immune to line wrapping and comment noise.
//
// Rule IDs: config-key-docs, serve-verb-docs, span-name-docs,
// invariant-id-docs, diff-oracle-docs.
#pragma once

#include <vector>

#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"

namespace ppf::analyze {

void check_catalogs(const Project& p, std::vector<Diagnostic>& out);

}  // namespace ppf::analyze
