#ifndef XPSTREAM_STREAM_LAZY_DFA_FILTER_H_
#define XPSTREAM_STREAM_LAZY_DFA_FILTER_H_

/// \file
/// A lazily determinized automaton filter in the style of Green et al.
/// ("Processing XML streams with deterministic automata", [18]) — the
/// paradigm whose worst-case exponential transition tables motivate the
/// paper (§1.2). DFA states are subsets of the linear-path NFA's states,
/// interned on first contact; transitions are cached per (state, symbol)
/// where element names outside the query's alphabet collapse onto a
/// single OTHER symbol.
///
/// Names arrive as shared-SymbolTable ids (the filter used to keep a
/// private linear-scan intern table; that is gone). The query's node
/// tests map onto a dense local alphabet 1..k at creation, a flat
/// Symbol-indexed array translates document symbols into it, and the
/// per-event path is two integer lookups — no string touches the DFA.
///
/// The MemoryStats expose materialized state and transition counts, which
/// experiment E5 sweeps against FrontierFilter's frontier table. The
/// table is private to the filter, so those counts are exactly the
/// states and transitions this filter's own documents materialized.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stream/filter.h"
#include "stream/nfa_filter.h"
#include "xpath/ast.h"

namespace xpstream {

class LazyDfaFilter : public StreamFilter {
 public:
  /// The engine's fragment gate, stated once: OK for a linear path
  /// (IsLinearPathQuery) of at most 63 steps with no '@' step,
  /// kUnsupported otherwise. Create calls it first; so does the
  /// planner's support check.
  static Status CheckFragment(const Query& query);

  /// Requires CheckFragment(*query). Node tests resolve to Symbols in
  /// `symbols` (the pipeline's shared table; nullptr = a private one)
  /// at creation.
  static Result<std::unique_ptr<LazyDfaFilter>> Create(
      const Query* query, SymbolTable* symbols = nullptr);

  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<bool> Matched() const override;
  size_t DecidedAt() const override { return decided_at_; }
  std::string SerializeState() const override;
  const MemoryStats& stats() const override { return stats_; }
  std::string name() const override { return "LazyDfaFilter"; }

  /// Materialized DFA size so far (persists across documents, like the
  /// shared transition table of a dissemination engine).
  size_t NumStates() const { return mask_of_state_.size(); }
  size_t NumTransitions() const { return transitions_.size(); }

  /// Eagerly materializes every reachable state/transition, as an
  /// eager-DFA engine would; used to measure worst-case table size.
  void MaterializeFully();

 private:
  struct Step {
    Axis axis;
    bool wildcard;  // "*"
    int local;      // local-alphabet id of the node test; 0 for wildcard
  };

  LazyDfaFilter() = default;

  static constexpr int kOtherSymbol = 0;

  /// Maps a shared-table Symbol onto the query's local alphabet
  /// (1..alphabet_size_); names outside it — including every symbol
  /// interned after this filter was created — are OTHER.
  int LocalSymbol(Symbol sym) const {
    return sym < local_of_symbol_.size() ? local_of_symbol_[sym]
                                         : kOtherSymbol;
  }

  int InternState(uint64_t mask);
  uint64_t Descend(uint64_t mask, int symbol) const;
  int Transition(int state, int symbol);

  /// The NFA subset mask of a state id.
  uint64_t MaskOf(int state) const {
    return mask_of_state_[static_cast<size_t>(state)];
  }

  std::vector<Step> steps_;
  std::vector<int> local_of_symbol_;  // Symbol id -> local id (flat)
  int alphabet_size_ = 0;             // local ids are 1..alphabet_size_

  // The materialized DFA: states are NFA subset masks interned in
  // discovery order; transitions map (state, local symbol) -> state.
  std::map<uint64_t, int> state_of_mask_;
  std::vector<uint64_t> mask_of_state_;
  std::map<std::pair<int, int>, int> transitions_;

  std::vector<int> stack_;
  bool matched_ = false;
  bool done_ = false;
  size_t ordinal_ = 0;  ///< ordinal of the event being consumed
  size_t decided_at_ = kNoEventOrdinal;
  MemoryStats stats_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_LAZY_DFA_FILTER_H_
