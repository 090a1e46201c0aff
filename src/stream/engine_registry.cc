#include "stream/engine_registry.h"

#include "stream/lazy_dfa_filter.h"
#include "stream/naive_filter.h"
#include "stream/nfa_filter.h"

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

}  // namespace

Result<std::unique_ptr<Matcher>> CreateMatcher(const std::string& name,
                                               SymbolTable* symbols) {
  if (name == "frontier") return NewFrontierMatcher(symbols);
  if (name == "lazy_dfa") return NewFilterBank<LazyDfaFilter>(name, symbols);
  if (name == "naive") return NewFilterBank<NaiveTreeFilter>(name, symbols);
  if (name == "nfa") return NewFilterBank<NfaFilter>(name, symbols);
  if (name == "nfa_index") return NewNfaIndexMatcher(symbols);
  std::string known;
  for (const std::string& known_name : EngineNames()) {
    if (!known.empty()) known += ", ";
    known += known_name;
  }
  return Status::NotFound("unknown engine \"" + name + "\" (registered: " +
                          known + ")");
}

std::vector<std::string> EngineNames() {
  return {"frontier", "lazy_dfa", "naive", "nfa", "nfa_index"};
}

}  // namespace xpstream
