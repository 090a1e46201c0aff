#ifndef XPSTREAM_STREAM_SHARDED_MATCHER_H_
#define XPSTREAM_STREAM_SHARDED_MATCHER_H_

/// \file
/// Parallel dissemination: subscriptions are partitioned round-robin
/// across N shards, each shard a full Matcher of the same base engine
/// ("nfa_index", "frontier", …). The document's SAX events are buffered
/// while they stream in; at endDocument every shard replays the batch on
/// a persistent ThreadPool, and per-shard verdicts, decided positions
/// and MemoryStats are merged back in subscription-slot order.
///
/// Determinism contract: verdict vectors, history, decided positions
/// and MatchSink callback sequences are bit-identical to the
/// single-threaded base engine regardless of thread count or scheduling
/// — slot s lives in shard s % N at local slot s / N, merges walk
/// shards in index order, match reports are re-sorted by (ordinal,
/// slot) before delivery, and each shard is touched by exactly one
/// thread per document. Merged stats are equally scheduling-independent
/// but not equal to the threads = 1 readings: N separate shard
/// structures replace one (nfa_index loses cross-shard prefix sharing),
/// and the buffered batch is charged below.
///
/// Symbols: all shards share one SymbolTable (the facade's, threaded
/// through Create), so a subscription's node-test ids are identical in
/// whichever shard it lands in and verdict/sink bit-parity with
/// threads = 1 is preserved. Every event's name is resolved on the
/// dispatching thread *before* the parallel replay — shards only read
/// symbols, never intern, keeping the table lock-free and the replay
/// race-free (TSan-checked).
///
/// Memory accounting: buffering the event batch is a real cost the
/// paper's streaming model charges, so the batch's bytes are reported
/// in buffered_bytes on top of the shards' own gauges. The charge is
/// the *symbolized* representation — text payload bytes plus one
/// Symbol per named event, with name characters charged once in the
/// shared table (MemoryStats::symbol_bytes) rather than once per
/// buffered event. Note this is the model cost, like every other
/// gauge: the in-memory Event still carries its name string (kept for
/// debugging and the naive engine's tree building), so the gauge is
/// what a name-free event record would buffer, not the process RSS.
/// The borrowed OnDocument path replays a caller-owned span instead —
/// no copy is held, so no batch bytes are charged there.
///
/// Short-circuit: EnableShortCircuit(true) reaches every shard, so each
/// one cuts its committed slots out of the replay (the per-slot cut of
/// Matcher::EnableShortCircuit), and each shard's replay stops at the
/// first event after which all of its local verdicts are provably
/// decided (all matched — monotone verdicts cannot change after that).
/// Both cuts are deterministic, so verdicts, positions and sink
/// sequences stay bit-identical; only the work, and with it the
/// per-slot gauges past each commitment, shrinks.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "stream/matcher.h"
#include "xml/event.h"

namespace xpstream {

class ShardedMatcher : public Matcher {
 public:
  /// Creates `num_shards` matchers of `base_engine` via the global
  /// EngineRegistry, all sharing `context`'s structures — the pipeline
  /// SymbolTable (nullptr = the sharded matcher owns one and the shards
  /// share it) and, for table-memoizing engines, the DfaTableCache (so
  /// every shard reads one transition table instead of rebuilding it
  /// per shard); kNotFound when the name is unregistered. The pool is
  /// shared with the caller (the facade also uses it to pipeline
  /// document parsing) and must outlive the matcher's last call.
  static Result<std::unique_ptr<ShardedMatcher>> Create(
      const std::string& base_engine, size_t num_shards,
      std::shared_ptr<ThreadPool> pool, const PipelineContext& context);

  /// Convenience overload: shared SymbolTable only.
  static Result<std::unique_ptr<ShardedMatcher>> Create(
      const std::string& base_engine, size_t num_shards,
      std::shared_ptr<ThreadPool> pool, SymbolTable* symbols = nullptr);

  /// Factory overload for engines that are not (and must not be) in the
  /// global registry — the planner's "auto" meta-engine. `display_name`
  /// is what name() reports; each shard is one `factory` product
  /// sharing the sharded matcher's SymbolTable through the context.
  static Result<std::unique_ptr<ShardedMatcher>> Create(
      std::string display_name, const MatcherFactory& factory,
      size_t num_shards, std::shared_ptr<ThreadPool> pool,
      const PipelineContext& context);

  std::string name() const override { return base_engine_; }
  std::string EngineForSlot(size_t slot) const override {
    return shards_[slot % shards_.size()]->EngineForSlot(
        slot / shards_.size());
  }
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return num_subscriptions_; }
  void PublishShared() override;
  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Status OnDocument(const EventStream& events) override;
  Result<std::vector<bool>> Verdicts() const override;
  std::vector<size_t> DecidedPositions() const override;
  bool AllDecided() const override;
  const MemoryStats& stats() const override;

  void EnableShortCircuit(bool on) override;

  size_t num_shards() const { return shards_.size(); }

 private:
  /// Records one shard's match reports during its replay; drained into
  /// the slot-ordered merge after the barrier.
  struct ShardRecorder : MatchSink {
    std::vector<std::pair<size_t, size_t>> hits;  // (local slot, ordinal)
    void OnSlotMatched(size_t slot, size_t ordinal) override {
      hits.emplace_back(slot, ordinal);
    }
  };

  ShardedMatcher(std::string base_engine, std::shared_ptr<ThreadPool> pool);

  /// Number of subscriptions living in shard `i`.
  size_t LocalCount(size_t i) const;

  /// Replays `events` to every shard in parallel and merges verdicts,
  /// positions and sink reports; called once per document. Resolves
  /// every event's symbol into syms_ on the calling thread first, so
  /// the parallel phase never touches the SymbolTable.
  Status Dispatch(const EventStream& events);

  std::string base_engine_;
  std::vector<std::unique_ptr<Matcher>> shards_;
  std::shared_ptr<ThreadPool> pool_;

  size_t num_subscriptions_ = 0;
  EventStream batch_;        // the current document's buffered events
  size_t batch_bytes_ = 0;   // symbolized size: text bytes + symbols
  std::vector<Symbol> syms_; // per-event symbols for the current replay
  bool done_ = false;        // endDocument consumed and verdicts merged
  std::vector<bool> merged_verdicts_;
  std::vector<size_t> merged_positions_;
  std::vector<ShardRecorder> recorders_;  // reused across documents
  MemoryStats own_stats_;    // buffered_bytes of the batch
  mutable MemoryStats stats_;  // own_stats_ + shards, merged on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_SHARDED_MATCHER_H_
