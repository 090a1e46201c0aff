#ifndef XPSTREAM_STREAM_ENGINE_REGISTRY_H_
#define XPSTREAM_STREAM_ENGINE_REGISTRY_H_

/// \file
/// The closed table of built-in engines behind the public Engine
/// facade: "naive", "nfa" and "lazy_dfa" are banks of one StreamFilter
/// per subscription; "frontier" runs one frontier walk per query shape,
/// shared by up to 64 subscriptions; "nfa_index" runs every
/// subscription in one shared automaton. Each engine is one row of the
/// table, naming its matcher and its fragment gate, so CreateMatcher,
/// CheckEngineSupports and EngineNames() read the same list. The facade
/// resolves EngineOptions::engine (and each engine "auto" routes to)
/// through CreateMatcher.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/matcher.h"

namespace xpstream {

/// Creates an empty Matcher of the built-in engine `name` whose
/// subscriptions and events resolve names against `symbols` (nullptr =
/// a private table); kNotFound for any other name.
Result<std::unique_ptr<Matcher>> CreateMatcher(const std::string& name,
                                               SymbolTable* symbols = nullptr);

/// The fragment gate of the built-in engine `name`: OK when its matcher
/// accepts `query`, else the kUnsupported its Subscribe returns. Each
/// engine states its gate once, in a static CheckFragment that its own
/// subscribe path calls first; "naive" accepts every query. kNotFound
/// for any other name. The planner's `supported` column is this call.
Status CheckEngineSupports(const std::string& name, const Query& query);

/// The built-in engine names, in the planner's tie-break order: the
/// automaton stacks are the leanest structures, the frontier table
/// next, tree building last.
const std::vector<std::string>& EngineNames();

/// The nfa_index engine's matcher, defined next to the index it drives
/// (stream/nfa_index.cc).
std::unique_ptr<Matcher> NewNfaIndexMatcher(SymbolTable* symbols);

/// The frontier engine's matcher, defined next to the walk it drives
/// (stream/frontier_filter.cc).
std::unique_ptr<Matcher> NewFrontierMatcher(SymbolTable* symbols);

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_ENGINE_REGISTRY_H_
