#ifndef XPSTREAM_STREAM_FILTER_H_
#define XPSTREAM_STREAM_FILTER_H_

/// \file
/// The common interface of all streaming filtering engines. An engine
/// consumes one document as a SAX event stream and answers BOOLEVAL(Q, D).
/// Engines expose uniform memory accounting (MemoryStats) and a state
/// serialization hook used by the communication-complexity harness: a
/// one-way protocol message *is* the serialized state at a stream cut
/// (paper Lemma 3.7), so distinct-state counting over a fooling family
/// lower-bounds the information the engine must retain.

#include <memory>
#include <string>

#include "common/memory_stats.h"
#include "common/status.h"
#include "xml/event.h"
#include "xml/symbol_table.h"

namespace xpstream {

class StreamFilter : public EventSink {
 public:
  ~StreamFilter() override = default;

  /// Prepares for a new document. Memory statistics are reset.
  virtual Status Reset() = 0;

  /// Feeds the next SAX event (EventSink interface): resolves the
  /// event's name against symbols() — a cached-symbol read for events
  /// produced by a table-backed parser, one intern otherwise — and
  /// forwards to OnSymbolizedEvent. Final so no engine can reintroduce
  /// string work on the event path.
  Status OnEvent(const Event& event) final {
    return OnSymbolizedEvent(event, ResolveEventName(event, symbols()));
  }

  /// The per-event hot path every engine implements. `name_sym` is the
  /// event's name resolved against symbols() (kNoSymbol for nameless
  /// events); engines dispatch on it with integer compares only. When a
  /// caller (FilterBankMatcher) resolves once for many consumers, all
  /// of them must share this filter's table.
  virtual Status OnSymbolizedEvent(const Event& event, Symbol name_sym) = 0;

  /// The SymbolTable this filter's query node tests are resolved
  /// against: the pipeline table bound at creation, or a private one
  /// for standalone use.
  SymbolTable* symbols() { return symbols_.get(); }

  /// The verdict; valid only after endDocument was consumed.
  virtual Result<bool> Matched() const = 0;

  /// The 0-based event ordinal (startDocument = 0) at which this
  /// engine's verdict became provably decided — the commitment point the
  /// paper reasons about — or kNoEventOrdinal while undecided. Verdicts
  /// are monotone: an engine decides *true* at the earliest event where
  /// its own state proves a match, and *false* only at endDocument, so
  /// mid-document a decided verdict is always a match. Positions are an
  /// engine-specific measurable: the naive engine commits only at
  /// endDocument (it buffers everything), automata commit on accepting-
  /// state entry, the frontier engine at its endElement aggregations.
  virtual size_t DecidedAt() const = 0;

  /// A canonical serialization of the complete algorithm state. Two
  /// moments with different future behaviour must serialize differently;
  /// equal serializations may be merged by the protocol simulator.
  virtual std::string SerializeState() const = 0;

  virtual const MemoryStats& stats() const = 0;

  virtual std::string name() const = 0;

 protected:
  /// Binds the pipeline's shared SymbolTable (nullptr keeps a lazily
  /// created private table). Engines call this in Create, before
  /// interning their query node tests.
  void BindSymbols(SymbolTable* table) { symbols_.Bind(table); }

 private:
  SymbolTableRef symbols_;
};

/// Resets the filter, runs a full stream through it, returns the verdict.
Result<bool> RunFilter(StreamFilter* filter, const EventStream& events);

/// Runs the filter on a stream without Reset (continuation runs used by
/// the protocol simulator).
Status FeedAll(StreamFilter* filter, const EventStream& events);

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_FILTER_H_
