#include "stream/sharded_matcher.h"

#include <algorithm>
#include <utility>

#include "stream/engine_registry.h"

namespace xpstream {

ShardedMatcher::ShardedMatcher(std::string base_engine,
                               std::shared_ptr<ThreadPool> pool)
    : base_engine_(std::move(base_engine)), pool_(std::move(pool)) {}

Result<std::unique_ptr<ShardedMatcher>> ShardedMatcher::Create(
    const std::string& base_engine, size_t num_shards,
    std::shared_ptr<ThreadPool> pool, const PipelineContext& context) {
  return Create(base_engine,
                [&base_engine](const PipelineContext& shard_context) {
                  return EngineRegistry::Global().CreateMatcher(
                      base_engine, shard_context);
                },
                num_shards, std::move(pool), context);
}

Result<std::unique_ptr<ShardedMatcher>> ShardedMatcher::Create(
    std::string display_name, const MatcherFactory& factory,
    size_t num_shards, std::shared_ptr<ThreadPool> pool,
    const PipelineContext& context) {
  if (num_shards == 0) {
    return Status::InvalidArgument("ShardedMatcher needs at least one shard");
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("ShardedMatcher needs a thread pool");
  }
  auto matcher = std::unique_ptr<ShardedMatcher>(
      new ShardedMatcher(std::move(display_name), std::move(pool)));
  matcher->BindSymbols(context.symbols);
  matcher->shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    // Every shard shares the sharded matcher's table: a query interns
    // to the same ids wherever it lands, so verdict/sink bit-parity
    // with threads = 1 holds by construction. Shards also share the
    // context's DfaTableCache — memoized transition tables are built
    // once and read by all shards instead of rebuilt per shard.
    PipelineContext shard_context = context;
    shard_context.symbols = matcher->symbols();
    auto shard = factory(shard_context);
    if (!shard.ok()) return shard.status();
    matcher->shards_.push_back(std::move(shard).value());
  }
  return matcher;
}

Result<std::unique_ptr<ShardedMatcher>> ShardedMatcher::Create(
    const std::string& base_engine, size_t num_shards,
    std::shared_ptr<ThreadPool> pool, SymbolTable* symbols) {
  PipelineContext context;
  context.symbols = symbols;
  return Create(base_engine, num_shards, std::move(pool), context);
}

Status ShardedMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != num_subscriptions_) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  // Round-robin: global slot s -> shard s % N, local slot s / N. Local
  // slots stay dense per shard, and uneven counts differ by at most one.
  const size_t shard = slot % shards_.size();
  XPS_RETURN_IF_ERROR(shards_[shard]->Subscribe(slot / shards_.size(), query));
  ++num_subscriptions_;
  return Status::OK();
}

Status ShardedMatcher::Unsubscribe(size_t slot) {
  if (slot >= num_subscriptions_) {
    return Status::InvalidArgument("unknown subscription slot");
  }
  // The owning shard tombstones its local slot; the global slot keeps
  // its number and the round-robin map is untouched.
  return shards_[slot % shards_.size()]->Unsubscribe(slot / shards_.size());
}

void ShardedMatcher::EnableShortCircuit(bool on) {
  Matcher::EnableShortCircuit(on);
  for (auto& shard : shards_) shard->EnableShortCircuit(on);
}

void ShardedMatcher::PublishShared() {
  // Sequential, on the dispatch thread: shards fold their private
  // overlays into the shared caches with no replay in flight.
  for (auto& shard : shards_) shard->PublishShared();
}

size_t ShardedMatcher::LocalCount(size_t i) const {
  const size_t n = shards_.size();
  return num_subscriptions_ / n + (i < num_subscriptions_ % n ? 1 : 0);
}

Status ShardedMatcher::Reset() {
  batch_.clear();
  batch_bytes_ = 0;
  done_ = false;
  own_stats_.Reset();
  return Status::OK();
}

Status ShardedMatcher::OnSymbolizedEvent(const Event& event,
                                         Symbol name_sym) {
  if (event.type == EventType::kStartDocument) {
    // The facade resets before forwarding startDocument; direct callers
    // (and documents after an AbortDocument) get the same guarantee here.
    XPS_RETURN_IF_ERROR(Reset());
  }
  // Buffering the event buffers only its views: the lifetime contract
  // (xml/event.h) keeps the producer's backing bytes valid until we
  // return from endDocument — and the replay below happens inside it —
  // so the borrowed batch needs no copies of name/text payloads.
  batch_.push_back(event);
  // The buffered event carries its resolved symbol, so the parallel
  // replay reads integers and never touches the SymbolTable.
  batch_.back().name_sym = name_sym;
  // Charge the symbolized representation: text payload plus one Symbol
  // per named event. The name characters are interned once in the
  // shared table (reported as symbol_bytes by the facade), so charging
  // them again per buffered event would double-count them.
  batch_bytes_ += event.text.size() +
                  (name_sym != kNoSymbol ? sizeof(Symbol) : 0);
  own_stats_.buffered_bytes().Set(batch_bytes_);
  if (event.type == EventType::kEndDocument) {
    Status status = Dispatch(batch_);
    // The batch was fully replayed; release its text but keep capacity
    // for the next document of the stream.
    batch_.clear();
    batch_bytes_ = 0;
    own_stats_.buffered_bytes().Set(0);
    return status;
  }
  return Status::OK();
}

Status ShardedMatcher::OnDocument(const EventStream& events) {
  // Borrowed-batch replay: the caller already holds the whole document,
  // so the shards replay the caller's span directly — no copy is made
  // (or charged to buffered_bytes) and the span is released on return.
  XPS_RETURN_IF_ERROR(Reset());
  return Dispatch(events);
}

Status ShardedMatcher::Dispatch(const EventStream& events) {
  const size_t n = shards_.size();
  // Resolve every event's symbol on this thread, before the fan-out:
  // events from the buffered batch (or a symbolizing parser) carry
  // their symbol already and cost a copy; unsymbolized borrowed spans
  // intern here, once, instead of once per shard — and the parallel
  // phase below only ever reads the table.
  syms_.resize(events.size());
  for (size_t k = 0; k < events.size(); ++k) {
    syms_[k] = ResolveEventName(events[k], symbols());
  }
  std::vector<Status> statuses(n);
  std::vector<uint8_t> early_exit(n, 0);
  recorders_.resize(n);
  for (ShardRecorder& recorder : recorders_) recorder.hits.clear();
  pool_->ParallelFor(n, [&](size_t i) {
    Matcher* shard = shards_[i].get();
    shard->SetSink(&recorders_[i]);
    const bool may_cut = short_circuit_ && LocalCount(i) > 0;
    Status status = shard->Reset();
    for (size_t k = 0; k < events.size(); ++k) {
      if (!status.ok()) break;
      const Event& event = events[k];
      status = shard->OnSymbolizedEvent(event, syms_[k]);
      // Monotone verdicts: once every local slot is decided *mid-
      // document* (decided means matched there), the rest cannot
      // change this shard's answers. The endDocument event is
      // excluded — non-matches decide on it too, and by then there is
      // nothing left to skip.
      if (status.ok() && may_cut && shard->AllDecided() &&
          event.type != EventType::kEndDocument) {
        early_exit[i] = 1;
        break;
      }
    }
    shard->SetSink(nullptr);
    statuses[i] = std::move(status);
  });
  // All shards have completed; report the first failure in shard order
  // (deterministic, independent of which worker hit it first).
  for (Status& status : statuses) {
    XPS_RETURN_IF_ERROR(std::move(status));
  }
  // Back on the dispatch thread with no replay in flight: fold the
  // shards' privately grown structure (lazy-DFA transition overlays)
  // into the shared caches so the next document starts warm everywhere.
  PublishShared();

  merged_verdicts_.assign(num_subscriptions_, false);
  merged_positions_.assign(num_subscriptions_, kNoEventOrdinal);
  for (size_t i = 0; i < n; ++i) {
    const size_t local_count = LocalCount(i);
    std::vector<bool> verdicts;
    if (early_exit[i] != 0) {
      // The shard stopped because all its verdicts were decided — and
      // mid-document decided means matched.
      verdicts.assign(local_count, true);
    } else {
      auto shard_verdicts = shards_[i]->Verdicts();
      if (!shard_verdicts.ok()) return shard_verdicts.status();
      verdicts = std::move(shard_verdicts).value();
    }
    const std::vector<size_t> positions = shards_[i]->DecidedPositions();
    for (size_t local = 0; local < verdicts.size(); ++local) {
      const size_t slot = local * n + i;  // inverse of the round-robin map
      if (slot >= num_subscriptions_) continue;
      merged_verdicts_[slot] = verdicts[local];
      if (local < positions.size()) merged_positions_[slot] = positions[local];
    }
  }

  if (sink_ != nullptr) {
    // Replay the shards' match reports exactly as a single-threaded
    // scan would have delivered them: ordinal-ascending, slot-ascending
    // within one ordinal.
    std::vector<std::pair<size_t, size_t>> merged;  // (ordinal, global slot)
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [local, ordinal] : recorders_[i].hits) {
        merged.emplace_back(ordinal, local * n + i);
      }
    }
    std::sort(merged.begin(), merged.end());
    for (const auto& [ordinal, slot] : merged) {
      sink_->OnSlotMatched(slot, ordinal);
    }
  }
  done_ = true;
  return Status::OK();
}

Result<std::vector<bool>> ShardedMatcher::Verdicts() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return merged_verdicts_;
}

std::vector<size_t> ShardedMatcher::DecidedPositions() const {
  if (!done_) {
    // Events are still buffering: nothing has been replayed yet.
    return std::vector<size_t>(num_subscriptions_, kNoEventOrdinal);
  }
  return merged_positions_;
}

bool ShardedMatcher::AllDecided() const {
  // Replay only happens at dispatch, so mid-buffering nothing is
  // decided; after dispatch everything is.
  return done_;
}

const MemoryStats& ShardedMatcher::stats() const {
  stats_.Reset();
  stats_.Accumulate(own_stats_);
  for (const auto& shard : shards_) {
    stats_.Accumulate(shard->stats());
  }
  return stats_;
}

}  // namespace xpstream
