#ifndef XPSTREAM_STREAM_NFA_INDEX_H_
#define XPSTREAM_STREAM_NFA_INDEX_H_

/// \file
/// A YFilter-style shared NFA index ([14] in the paper's bibliography) —
/// the selective-dissemination engine the paper's introduction contrasts
/// itself against. Many linear path queries are combined into a single
/// nondeterministic automaton with common prefixes shared; one SAX scan
/// of a document answers BOOLEVAL for all subscriptions at once.
///
/// '//' steps are modeled as in YFilter by a companion state with a
/// self-loop (an ε-move into it keeps the active set ε-closed).
/// Acceptance is sticky per query id.
///
/// Edges are keyed by interned Symbol ids in flat sorted arrays (one
/// binary search of integer keys per active state per element — the old
/// per-event `std::map<std::string, ...>` lookups hashed/compared raw
/// names for every active state). Query node tests intern at AddQuery
/// time into the index's SymbolTable — the pipeline's shared table when
/// bound, a private one otherwise.
///
/// The index demonstrates the automaton paradigm's strength (prefix
/// sharing across thousands of subscriptions) alongside its weakness
/// measured elsewhere (E5's exponential determinization; the per-element
/// active-set cost on deep recursive documents).

#include <cstdint>
#include <string>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "xml/event.h"
#include "xml/symbol_table.h"
#include "xpath/ast.h"

namespace xpstream {

class MatchSink;  // stream/matcher.h
class NfaIndexRun;

class NfaIndex {
 public:
  /// `symbols` is the pipeline's shared SymbolTable (nullptr = the
  /// index owns a private one). It must outlive the index.
  explicit NfaIndex(SymbolTable* symbols = nullptr);

  /// The table query node tests and document names resolve against.
  SymbolTable* symbols() { return symbols_.get(); }

  /// The engine's fragment gate, stated once: OK for a linear path
  /// (IsLinearPathQuery) of at least one step, of any length,
  /// kUnsupported otherwise. AddQuery calls it first; so does the
  /// planner's support check.
  static Status CheckFragment(const Query& query);

  /// Registers a query that passes CheckFragment under a caller-chosen
  /// id. ids must be dense-ish small integers (they size the verdict
  /// vector).
  Status AddQuery(size_t id, const Query& query);

  /// Removes every acceptance of query `id` (one O(states) sweep over
  /// accept lists). States and edges stay — shared prefixes may serve
  /// other queries and the verdict width (max id) is unchanged — so
  /// removal never rebuilds the automaton and never invalidates a run's
  /// recycled storage: the id simply stops accepting and its verdict
  /// reads false from the next document on. Reclaiming dead states is
  /// the facade's deferred-compaction decision (a fresh matcher).
  void RemoveQuery(size_t id);

  /// Total NFA states, shared across all registered queries.
  size_t NumStates() const { return states_.size(); }

 private:
  friend class NfaIndexRun;

  /// One child-axis edge: interned element name -> target state.
  /// (Construction shares one target per (state, name), so a single
  /// int suffices.)
  struct ChildEdge {
    Symbol sym;
    int target;
  };

  /// Attribute-axis acceptance: interned attribute name -> accepting
  /// query ids (attribute steps are terminal: attributes have no
  /// children).
  struct AttrAccept {
    Symbol sym;
    std::vector<size_t> ids;
  };

  struct State {
    /// child-axis edges, sorted by symbol (flat map, binary-searched).
    std::vector<ChildEdge> child_edges;
    /// child-axis wildcard edges.
    std::vector<int> wildcard_edges;
    /// attribute-axis accepts, sorted by symbol (flat map).
    std::vector<AttrAccept> attribute_accepts;
    /// descendant companion state (self-loop); -1 when absent.
    int dd_state = -1;
    bool self_loop = false;
    std::vector<size_t> accepts;  ///< query ids accepted on entry
  };

  int NewState();
  /// Gets or creates the target of a child edge from `from` for `ntest`.
  int ChildTarget(int from, const std::string& ntest);
  /// Gets or creates the descendant companion of `from`.
  int DdState(int from);

  SymbolTableRef symbols_;
  std::vector<State> states_;
  size_t max_id_ = 0;
};

/// Incremental (push-style) execution of an NfaIndex over one document:
/// the streaming face the Engine facade drives event by event.
///
/// The active-set stack is a high-water-mark pool: popped levels keep
/// their vectors, so after the first descent to depth d a run performs
/// no per-element allocations — the hot-path cut measured in
/// bench_nfa_index.
///
/// The index must outlive the run. Queries may be added to the index
/// between documents; the verdict width is re-read at startDocument.
class NfaIndexRun : public EventSink {
 public:
  explicit NfaIndexRun(NfaIndex* index) : index_(index) {}

  /// Prepares for a new document (recycled capacity is kept). A
  /// startDocument event implies Reset, so calling this is optional.
  Status Reset();

  /// Resolves the event's name against the index's SymbolTable and
  /// forwards to OnSymbolizedEvent.
  Status OnEvent(const Event& event) override {
    return OnSymbolizedEvent(event,
                             ResolveEventName(event, index_->symbols()));
  }

  /// The hot path: one binary search of integer keys per active state,
  /// no string work. `name_sym` must be resolved against the index's
  /// table (names the table has never seen cannot match any edge).
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym);

  /// Attaches a push sink notified on accepting-state entry: each query
  /// id is reported once, at the ordinal of the event that first
  /// accepted it (ids ascending within one event). nullptr detaches.
  void SetSink(MatchSink* sink) { sink_ = sink; }

  /// True once endDocument was consumed.
  bool done() const { return done_; }

  /// Per-query verdicts (indexed by AddQuery ids); valid after
  /// endDocument.
  Result<std::vector<bool>> Verdicts() const;

  /// Active-set entries across the stack, peak automaton size.
  const MemoryStats& stats() const { return stats_; }

 private:
  /// Opens a fresh active set: bumps the membership epoch so stale
  /// stamps from earlier sets read as "absent". On epoch wrap the stamp
  /// array is refilled with zero (once per 2^32 sets).
  void BeginSet();

  /// Adds `state` and its ε-closure (dd companion) to `set`, dedup'd
  /// against the current epoch's membership stamps — O(1) per insertion
  /// where the old linear scan of the active set was O(set size),
  /// quadratic per element on small alphabets (E10's regime).
  void AddClosed(int state, std::vector<int>* set);

  NfaIndex* index_;  ///< non-const for lazy name interning in OnEvent
  std::vector<bool> verdicts_;
  std::vector<size_t> newly_;  ///< scratch: ids accepted this event
  size_t ordinal_ = 0;         ///< ordinal of the event being consumed
  MatchSink* sink_ = nullptr;
  /// Active sets for the open elements; only the first depth_ entries
  /// are live, deeper ones are recycled storage.
  std::vector<std::vector<int>> stack_;
  /// member_epoch_[s] == epoch_ iff state s is already in the set
  /// currently being filled (see BeginSet/AddClosed).
  std::vector<uint32_t> member_epoch_;
  uint32_t epoch_ = 0;
  size_t depth_ = 0;
  size_t active_entries_ = 0;
  bool done_ = false;
  MemoryStats stats_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_NFA_INDEX_H_
