#include "stream/engine_registry.h"

#include "stream/frontier_filter.h"
#include "stream/lazy_dfa_filter.h"
#include "stream/naive_filter.h"
#include "stream/nfa_filter.h"
#include "stream/nfa_index.h"

namespace xpstream {

namespace {

/// A bank of per-subscription FilterT instances sharing one SAX scan:
/// the shape every single-query engine takes.
template <typename FilterT>
std::unique_ptr<Matcher> NewFilterBank(const std::string& name,
                                       SymbolTable* symbols) {
  return std::make_unique<FilterBankMatcher>(
      name,
      [](const Query* query,
         SymbolTable* table) -> Result<std::unique_ptr<StreamFilter>> {
        auto filter = FilterT::Create(query, table);
        if (!filter.ok()) return filter.status();
        return std::unique_ptr<StreamFilter>(std::move(filter).value());
      },
      symbols);
}

/// One built-in engine: its name, its matcher and its fragment gate.
struct BuiltinEngine {
  const char* name;
  std::unique_ptr<Matcher> (*create)(const std::string& name,
                                     SymbolTable* symbols);
  Status (*check_fragment)(const Query& query);
};

/// Every built-in engine, one row each, in the planner's tie-break
/// order (see EngineNames()).
const BuiltinEngine kEngines[] = {
    {"nfa", NewFilterBank<NfaFilter>, NfaFilter::CheckFragment},
    {"lazy_dfa", NewFilterBank<LazyDfaFilter>, LazyDfaFilter::CheckFragment},
    {"nfa_index",
     [](const std::string&, SymbolTable* symbols) {
       return NewNfaIndexMatcher(symbols);
     },
     NfaIndex::CheckFragment},
    {"frontier",
     [](const std::string&, SymbolTable* symbols) {
       return NewFrontierMatcher(symbols);
     },
     FrontierFilter::CheckFragment},
    {"naive", NewFilterBank<NaiveTreeFilter>,
     [](const Query&) { return Status::OK(); }},
};

/// The row named `name`, or kNotFound listing the known names.
Result<const BuiltinEngine*> FindEngine(const std::string& name) {
  for (const BuiltinEngine& engine : kEngines) {
    if (name == engine.name) return &engine;
  }
  std::string known;
  for (const BuiltinEngine& engine : kEngines) {
    if (!known.empty()) known += ", ";
    known += engine.name;
  }
  return Status::NotFound("unknown engine \"" + name + "\" (registered: " +
                          known + ")");
}

}  // namespace

Result<std::unique_ptr<Matcher>> CreateMatcher(const std::string& name,
                                               SymbolTable* symbols) {
  auto engine = FindEngine(name);
  if (!engine.ok()) return engine.status();
  return (*engine)->create(name, symbols);
}

Status CheckEngineSupports(const std::string& name, const Query& query) {
  auto engine = FindEngine(name);
  if (!engine.ok()) return engine.status();
  return (*engine)->check_fragment(query);
}

const std::vector<std::string>& EngineNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const BuiltinEngine& engine : kEngines) names.push_back(engine.name);
    return names;
  }();
  return kNames;
}

}  // namespace xpstream
