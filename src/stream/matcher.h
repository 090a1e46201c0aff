#ifndef XPSTREAM_STREAM_MATCHER_H_
#define XPSTREAM_STREAM_MATCHER_H_

/// \file
/// The single subscription model behind the public Engine facade. A
/// Matcher answers BOOLEVAL for a *set* of subscriptions over one
/// document stream at a time: subscriptions are registered under dense
/// slots, the document arrives as SAX events, and each slot that matches
/// is reported once through the MatchSink; a slot not reported by the
/// end of endDocument did not match. Every matcher keeps uniform
/// MemoryStats.
///
/// Three families implement the interface:
///  * FilterBankMatcher — one StreamFilter per subscription sharing a
///    single SAX scan (nfa / lazy_dfa / naive engines);
///  * the frontier matcher (frontier engine), one FrontierFilter walk
///    per query shape, each shared by up to 64 subscriptions;
///  * the shared-automaton matcher over NfaIndex (nfa_index engine),
///    where all subscriptions run in one automaton.
/// All are created by name through CreateMatcher
/// (stream/engine_registry.h).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "stream/filter.h"
#include "xml/event.h"
#include "xml/symbol_table.h"

namespace xpstream {

class Query;  // xpath/ast.h

/// The one channel through which verdicts leave a matcher: as the scan
/// proceeds, the matcher reports each subscription slot whose verdict
/// became provably decided *true*, together with the 0-based event
/// ordinal of the deciding event (startDocument = 0), endDocument
/// included. Verdicts are monotone, so a slot is reported at most once
/// per document, and a slot not reported by the end of endDocument did
/// not match. Reports arrive in nondecreasing ordinal order, ascending
/// slot within one ordinal.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnSlotMatched(size_t slot, size_t ordinal) = 0;
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Attaches a push sink for match notifications (nullptr detaches).
  /// Must not be called between startDocument and endDocument.
  virtual void SetSink(MatchSink* sink) { sink_ = sink; }

  /// Built-in engine name this matcher was created under.
  virtual std::string name() const = 0;

  /// Registers a subscription under the next dense slot; `slot` must
  /// equal NumSubscriptions(). The query must outlive the matcher.
  /// Fails with kUnsupported when the query is outside the engine's
  /// fragment, and must not be called between startDocument and
  /// endDocument (the facade enforces this).
  virtual Status Subscribe(size_t slot, const Query* query) = 0;

  /// Tombstones the subscription in `slot`: the slot stops evaluating
  /// (it is never reported again, so it reads as a non-match) but stays
  /// allocated, so live slots keep their numbers and — crucially — no
  /// automaton is rebuilt and no in-flight document state is
  /// invalidated. Must not be called between startDocument and
  /// endDocument (the facade enforces this). Reclaiming tombstoned
  /// capacity is the caller's deferred-compaction decision (the facade
  /// rebuilds into a fresh matcher in a maintenance window, never on
  /// the Unsubscribe path).
  virtual Status Unsubscribe(size_t slot) = 0;

  /// Total slots ever subscribed, including tombstoned ones (the next
  /// dense Subscribe slot).
  virtual size_t NumSubscriptions() const = 0;

  /// The per-slot commitment cut behind EngineOptions::short_circuit:
  /// once a slot's verdict is committed mid-document (decided means
  /// matched), the matcher may stop feeding it the rest of that
  /// document. Sink reports stay those of a full scan; per-slot gauges
  /// stop at the commitment, so peaks are at most a full scan's. Off by
  /// default. Must not be called between startDocument and endDocument.
  void EnableShortCircuit(bool on) { short_circuit_ = on; }

  /// Feeds the next SAX event — the per-event hot path. `name_sym` is
  /// the event's name resolved against symbols() (kNoSymbol for
  /// nameless events), once per event by the caller: every matcher of
  /// one Engine shares that table, so the one symbol serves every
  /// subscription of every member. startDocument prepares a new
  /// document: verdicts and per-document stats reset.
  virtual Status OnSymbolizedEvent(const Event& event, Symbol name_sym) = 0;

  /// The SymbolTable this matcher's subscriptions resolve against: the
  /// pipeline table bound at creation (shared with the parser), or a
  /// private one when created standalone.
  SymbolTable* symbols() { return symbols_.get(); }

  /// Memory accounting for the current/most recent document. For a
  /// filter bank this is the sum over member filters, for the frontier
  /// matcher the sum over its walks (peaks sum to an upper bound, since
  /// the parts may peak at different moments).
  virtual const MemoryStats& stats() const = 0;

 protected:
  /// Binds the pipeline's shared SymbolTable (nullptr keeps a lazily
  /// created private table). Called at construction, before the first
  /// Subscribe.
  void BindSymbols(SymbolTable* table) { symbols_.Bind(table); }

  MatchSink* sink_ = nullptr;
  bool short_circuit_ = false;

 private:
  SymbolTableRef symbols_;
};

/// Creates one engine-specific StreamFilter for a subscription query,
/// with its node tests resolved in `symbols`.
using FilterFactory = std::function<Result<std::unique_ptr<StreamFilter>>(
    const Query*, SymbolTable* symbols)>;

/// A bank of per-subscription StreamFilters sharing one SAX scan — the
/// adapter that turns every single-query engine into a multi-query
/// dissemination engine. All member filters share the bank's
/// SymbolTable, so one name resolution per event serves every filter.
class FilterBankMatcher : public Matcher {
 public:
  FilterBankMatcher(std::string name, FilterFactory factory,
                    SymbolTable* symbols = nullptr)
      : name_(std::move(name)), factory_(std::move(factory)) {
    BindSymbols(symbols);
  }

  std::string name() const override { return name_; }
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return filters_.size(); }
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  const MemoryStats& stats() const override;

 private:
  std::string name_;
  FilterFactory factory_;
  /// Member filters by slot; a null entry is a tombstoned slot
  /// (unsubscribed — it evaluates nothing and reads as a non-match).
  std::vector<std::unique_ptr<StreamFilter>> filters_;
  std::vector<uint8_t> decided_;  ///< per slot: decided in the current document
  /// Slots the current document still feeds, ascending: every live
  /// slot at document start (Unsubscribe is barred mid-document), minus
  /// those the cut removed at their commitment.
  std::vector<size_t> fed_;
  mutable MemoryStats stats_;  // aggregated on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_MATCHER_H_
