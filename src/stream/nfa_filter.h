#ifndef XPSTREAM_STREAM_NFA_FILTER_H_
#define XPSTREAM_STREAM_NFA_FILTER_H_

/// \file
/// A clean-room YFilter-style nondeterministic automaton filter for
/// *linear* Forward XPath (a single location path, no predicates) — the
/// fragment the automaton literature the paper compares against ([14,18])
/// evaluates natively. Query steps become NFA states; '//' steps add
/// self-loops; the run keeps a stack of active state sets, one per open
/// element, so per-event work is O(|Q|) and memory is d · |Q| bits of
/// state-set plus the stack.
///
/// Used as the baseline for experiments E3/E4/E5 and differential-tested
/// against the ground truth evaluator on linear queries.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/filter.h"
#include "xpath/ast.h"

namespace xpstream {

/// True when the query is a single successor chain with no predicates —
/// the fragment NfaFilter, LazyDfaFilter and NfaIndex support.
bool IsLinearPathQuery(const Query& query);

class NfaFilter : public StreamFilter {
 public:
  /// The engine's fragment gate, stated once: OK for a linear path
  /// (IsLinearPathQuery) of at most 63 steps, kUnsupported otherwise.
  /// Create calls it first; so does the planner's support check.
  static Status CheckFragment(const Query& query);

  /// Requires CheckFragment(*query). Node tests are resolved to Symbols
  /// in `symbols` (the pipeline's shared table; nullptr = a private
  /// one) at creation, so the per-event path is integer compares only.
  static Result<std::unique_ptr<NfaFilter>> Create(
      const Query* query, SymbolTable* symbols = nullptr);

  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<bool> Matched() const override;
  size_t DecidedAt() const override { return decided_at_; }
  std::string SerializeState() const override;
  const MemoryStats& stats() const override { return stats_; }
  std::string name() const override { return "NfaFilter"; }

 private:
  struct Step {
    Axis axis;
    Symbol ntest;   // interned node test; kNoSymbol for the wildcard
    bool wildcard;  // "*"
    bool Passes(Symbol name_sym) const {
      return wildcard || ntest == name_sym;
    }
  };

  explicit NfaFilter(std::vector<Step> steps) : steps_(std::move(steps)) {}

  /// NFA transition on descending into an element whose name interned
  /// to `name_sym`: state i survives when step i+1 has a descendant
  /// axis; state i advances to i+1 when step i+1's node test passes.
  uint64_t Descend(uint64_t active, Symbol name_sym) const;

  std::vector<Step> steps_;
  std::vector<uint64_t> stack_;
  bool matched_ = false;
  bool done_ = false;
  size_t ordinal_ = 0;  ///< ordinal of the event being consumed
  size_t decided_at_ = kNoEventOrdinal;
  MemoryStats stats_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_NFA_FILTER_H_
