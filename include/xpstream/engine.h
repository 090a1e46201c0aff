#ifndef XPSTREAM_PUBLIC_ENGINE_H_
#define XPSTREAM_PUBLIC_ENGINE_H_

/// \file
/// The public streaming-filter facade. One Engine answers BOOLEVAL for a
/// set of subscriptions over a sequence of streaming XML documents:
///
///   auto engine = Engine::Create({.engine = "frontier"});
///   (*engine)->Subscribe("cheap-books", "/book[price < 30]/title");
///   (*engine)->Feed(xml_chunk);        // bytes, any chunking
///   (*engine)->FinishDocument();
///   bool hit = *(*engine)->Matched("cheap-books");
///
/// The algorithm is selected by name — "naive", "nfa", "lazy_dfa",
/// "frontier" (the paper's Section 8 algorithm, the default), or
/// "nfa_index" (a YFilter-style shared automaton for thousand-query
/// dissemination) — or "auto", which lets the query planner pick one
/// per subscription. Single-query filtering and multi-query
/// dissemination use the same subscription model; every engine reports
/// uniform MemoryStats.
///
/// Three entry points, highest level first:
///  * bytes    — Feed()/FinishDocument() or FilterXml(); the engine owns
///               the streaming XML parser, callers never see SAX;
///  * SAX      — OnEvent() (the Engine is an EventSink) with document
///               boundaries taken from start/endDocument events;
///  * batch    — FilterEvents() for a pre-parsed document.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "xml/event.h"
#include "xml/stats.h"
#include "xpstream/query.h"

namespace xpstream {

class SymbolTable;  // internal (xml/symbol_table.h)
class XmlParser;    // internal (xml/parser.h)

/// What happens to a Subscribe whose predicted peak memory would push
/// the engine past EngineOptions::memory_budget_bytes.
enum class AdmissionPolicy {
  /// Fail the Subscribe with kResourceExhausted; the engine is
  /// untouched. The default.
  kReject,
  /// Admit the subscription degraded: its delivery mode is forced to
  /// kAtEnd (no early push work) and the admission is counted in
  /// admission_degrades(). The predicted cost is still charged, so one
  /// over-budget admission does not open the gate for the next.
  kDegrade,
};

/// When a subscription's result is pushed to the ResultSink.
enum class DeliveryMode {
  /// Notify at document completion — the classic pull behavior, the
  /// default. The reported event ordinal is still the engine's decided
  /// position; only the callback is deferred to the document boundary.
  kAtEnd,
  /// Notify at the first event where the engine's verdict is provably
  /// decided — its commitment point, the quantity the paper's
  /// buffering bounds reason about. Different engines commit at
  /// different positions on the same document (automata on accepting-
  /// state entry, the frontier algorithm at the event that meets the
  /// query root's last requirement, the naive engine only at
  /// endDocument). A document can still be aborted after a match was
  /// pushed: no OnDocumentDone follows. Every startDocument takes the
  /// next index, so an aborted document's index is never reused and
  /// the indices of completed documents may skip. Only
  /// OnDocumentDone's verdicts are authoritative for a completed
  /// document.
  kEarliest,
};

/// Observer for push-based result delivery. Attach with
/// Engine::SetSink(); override only what you need. Callbacks are
/// synchronous with the event stream and always arrive on the thread
/// driving the engine, in a deterministic order: OnMatch calls in
/// nondecreasing event-ordinal order (ascending slot within one
/// ordinal), then the document's OnDocumentDone.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Subscription `slot` (its index in subscription_ids() order)
  /// matched document `doc_index`; `event_ordinal` is the 0-based
  /// position of the deciding event in the document's SAX stream
  /// (startDocument = 0). Delivered at the deciding event for
  /// kEarliest subscriptions and at document completion for kAtEnd
  /// ones. Non-matches are not reported here — read them from
  /// OnDocumentDone.
  virtual void OnMatch(size_t slot, size_t doc_index, size_t event_ordinal) {
    (void)slot;
    (void)doc_index;
    (void)event_ordinal;
  }

  /// Document `doc_index` completed with these verdicts (in
  /// subscription_ids() order). Fires for every completed document,
  /// after all of its OnMatch deliveries.
  virtual void OnDocumentDone(size_t doc_index,
                              const std::vector<bool>& verdicts) {
    (void)doc_index;
    (void)verdicts;
  }
};

/// Engine construction options.
struct EngineOptions {
  /// Name of the filtering algorithm — one of AvailableEngines() — or
  /// "auto", which routes each new evaluation slot to the engine the
  /// query planner (xpstream/planner.h) predicts cheapest among those
  /// that accept it. "auto" is a routing policy over the built-in
  /// algorithms, not an algorithm, so it does not appear in
  /// AvailableEngines().
  std::string engine = "frontier";

  /// Per-engine (per-tenant) admission budget in predicted peak bytes;
  /// 0 = no admission control. Every new evaluation slot is priced by
  /// the planner against the profile of the documents observed so far
  /// (assumed_profile before the first document); when the running
  /// predicted total would exceed this budget, the Subscribe is
  /// rejected or degraded per `admission`. Deduplicated subscriptions
  /// (an equivalent query already evaluating) are free and always
  /// admitted.
  size_t memory_budget_bytes = 0;

  /// What to do with a Subscribe that would overrun the budget.
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// The document profile admission control and "auto" routing price
  /// against until the first real document is observed (then running
  /// maxima of observed documents take over). Deployments expecting
  /// hostile input should assert here the worst document their caps
  /// admit.
  DocumentProfile assumed_profile;

  /// Record the verdicts of every completed document in history().
  /// Disable for unbounded document streams where only Matched() /
  /// last_verdicts() and the peak gauges are consumed.
  bool keep_history = true;

  /// Match only where a verdict can still change. The cut is per
  /// slot: a subscription slot whose verdict commits mid-document
  /// (decided means matched there — verdicts are monotone, so
  /// non-matches only decide at endDocument) gets no further events
  /// of that document, and once every slot has committed no engine
  /// sees the rest at all. The per-slot cut applies to the
  /// one-filter-per-subscription engines (frontier, nfa, lazy_dfa;
  /// naive commits only at endDocument); nfa_index runs all slots in
  /// one automaton and is cut only whole. A pure work cut: verdicts,
  /// decided positions and sink deliveries are identical to a full
  /// scan. Memory gauges stop at each slot's commitment, so peaks are
  /// at most a full scan's. Malformed tails still fail: on bytes, once
  /// every slot has committed, the parser validates the rest of the
  /// document and counts it into the observed profile without emitting
  /// events, so the profile still measures the whole document; on
  /// events the facade itself checks stream shape (an unbalanced
  /// endElement, an endDocument with open elements), which the engines
  /// past their commitment no longer see.
  bool short_circuit = false;

  /// Maximum open-element depth a document may reach on every entry
  /// point (bytes, SAX and FilterEvents); 0 = unlimited. Exceeding it
  /// fails the document with kNotWellFormed before the offending event
  /// reaches any engine — hostile-input hardening for service
  /// deployments, where deep recursion is exactly the adversary the
  /// paper's §4 lower bounds build. The parser enforces it on bytes
  /// (through a short-circuited tail too), the facade on events.
  size_t max_element_depth = 0;

  /// Cap on the cumulative bytes one document's entity and character
  /// references may decode to on the byte entry points (0 = unlimited).
  /// A billion-laughs-style reference flood fails the document with a
  /// clean kParseError instead of demanding unbounded decode work;
  /// DTD-defined entities are rejected outright by the parser, so this
  /// bounds the predefined-entity/charref amplification that remains.
  size_t max_entity_expansion_bytes = 0;
};

/// Shared pipeline structure for creating *replica* engines — worker
/// copies of one logical engine that evaluate independent documents
/// concurrently (xpstream/pipeline.h's EnginePool). Replicas keep a
/// private SymbolTable and matcher state (document evaluation never
/// synchronizes), and share only the DocumentProfile the planner
/// prices against, so admission and "auto" routing decide identically
/// on every replica and a subscription's budget is charged once per
/// logical slot, not once per replica. A null profile means the engine
/// owns a private one (Create(options) is exactly this overload with
/// an empty context).
struct EngineSharedContext {
  /// Shared document profile: running maxima over every document any
  /// replica observed. Reads (Subscribe-time pricing) must be quiesced
  /// against writes (document boundaries) by the owner — EnginePool
  /// applies mutations only while no document is in flight.
  DocumentProfile* profile = nullptr;
  /// Guards concurrent profile updates when replicas finish documents
  /// at the same time; the engine locks it around its boundary fold.
  /// Required whenever `profile` is shared across threads.
  std::mutex* profile_mutex = nullptr;
};

class Engine : public EventSink {
 public:
  /// Creates an engine; kNotFound when options.engine names neither a
  /// built-in algorithm nor "auto".
  static Result<std::unique_ptr<Engine>> Create(const EngineOptions& options);

  /// Convenience overload: default options with the named algorithm.
  static Result<std::unique_ptr<Engine>> Create(std::string_view engine_name);

  /// Replica construction: like Create(options), but binding the given
  /// shared pipeline structures instead of owning private ones (null
  /// members still get private equivalents). The building block of
  /// xpstream/pipeline.h's EnginePool; see EngineSharedContext for the
  /// sharing and synchronization contract.
  static Result<std::unique_ptr<Engine>> Create(
      const EngineOptions& options, const EngineSharedContext& shared);

  /// Built-in algorithm names for EngineOptions::engine, sorted.
  static std::vector<std::string> AvailableEngines();

  ~Engine() override;

  /// The EngineOptions::engine name this engine was created under.
  const std::string& engine_name() const { return options_.engine; }

  // --- subscriptions -----------------------------------------------
  // Register/remove before a document starts; between documents is
  // fine, mid-document is an error. Subscription ids are caller-chosen,
  // distinct, and keep their registration order in verdict vectors.
  //
  // Dedup: every incoming query is canonicalized (structural
  // equivalence up to query automorphism and and/or commutativity —
  // analysis/canonical); equivalent subscriptions collapse onto one
  // *evaluation slot* of the underlying matcher, behind a slot →
  // subscriber fan-out map. A million logical subscriptions over a
  // thousand distinct queries cost a thousand slots of evaluation
  // work; verdicts, DecidedAt and ResultSink delivery are expanded
  // per subscription and are indistinguishable from unshared
  // evaluation. Queries whose canonicalization fails (exotic shapes
  // exceeding the automorphism budget) safely fall back to a private
  // slot — never a false merge.

  /// Subscribes a compiled query (the engine takes ownership). Fails
  /// with kUnsupported when the query lies outside the algorithm's
  /// fragment and with kInvalidArgument on a duplicate id. A failed or
  /// rejected Subscribe leaves the engine — slot map, symbol table,
  /// matcher — untouched. `mode` selects when an attached ResultSink
  /// hears about this subscription's matches.
  Status Subscribe(std::string id, CompiledQuery query,
                   DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Compiles and subscribes in one step.
  Status Subscribe(std::string id, std::string_view xpath,
                   DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Removes the subscription `id`. O(1) on the evaluation side: when
  /// the last subscriber of an evaluation slot leaves, the slot is
  /// *tombstoned* — the matcher stops evaluating it, but no automaton
  /// is rebuilt and no in-flight structure is invalidated, so removal
  /// is safe under live traffic. Later subscription indices shift down
  /// by one (ids keep registration order); verdicts of the last
  /// completed document remain queryable for the survivors. Tombstoned
  /// capacity is reclaimed only by CompactSubscriptions().
  Status Unsubscribe(std::string_view id);

  /// Rebuilds the matchers without tombstoned slots — the deferred half
  /// of Unsubscribe's tombstone-then-compact contract, to be called in
  /// a maintenance window between documents. Every surviving slot is
  /// re-priced against the *observed* document profile (not the
  /// assumed one it may have been admitted under); under "auto" it is
  /// also re-routed to the now-cheapest engine, so a compact also fires
  /// with zero tombstones when the ranking of some slot has changed.
  /// No-op when nothing is tombstoned and no slot would re-route. On
  /// failure the engine is unchanged (the old matchers keep serving).
  /// This is the only operation that rebuilds the automaton;
  /// automaton_rebuilds() counts exactly these.
  Status CompactSubscriptions();

  /// Live logical subscriptions (fan-out entries, not eval slots).
  size_t NumSubscriptions() const { return ids_.size(); }

  /// Distinct evaluation slots currently doing work — the dedup
  /// measure: NumSubscriptions() logical subscriptions over
  /// num_eval_slots() distinct canonical queries.
  size_t num_eval_slots() const { return slots_.size() - tombstoned_slots_; }

  /// Slots whose last subscriber left, awaiting CompactSubscriptions().
  size_t tombstoned_slots() const { return tombstoned_slots_; }

  /// Full matcher rebuilds so far — incremented by
  /// CompactSubscriptions() only, never by Subscribe/Unsubscribe.
  size_t automaton_rebuilds() const { return automaton_rebuilds_; }

  /// Subscription ids in registration order — the verdict-vector order.
  const std::vector<std::string>& subscription_ids() const { return ids_; }

  /// The compiled query subscribed under `id`; kNotFound when unknown.
  Result<const CompiledQuery*> SubscribedQuery(std::string_view id) const;

  // --- planning and admission --------------------------------------

  /// The planner's record for one admitted subscription.
  struct SubscriptionPlan {
    /// The engine actually evaluating it ("auto" resolves to the
    /// routed member engine; fixed-engine setups report that engine).
    std::string engine;
    /// The predicted peak bytes charged against the budget when its
    /// evaluation slot was admitted.
    size_t predicted_peak_bytes = 0;
    /// Whether admission degraded it (AdmissionPolicy::kDegrade path).
    bool degraded = false;
  };

  /// The plan under which subscription `id` was admitted; kNotFound
  /// when unknown.
  Result<SubscriptionPlan> PlanOf(std::string_view id) const;

  /// Predicted peak bytes of all live evaluation slots — the quantity
  /// admission control holds below memory_budget_bytes.
  size_t predicted_peak_bytes() const { return predicted_total_; }

  /// Subscribes rejected (kResourceExhausted) by admission control.
  size_t admission_rejects() const { return admission_rejects_; }

  /// Subscribes admitted degraded by AdmissionPolicy::kDegrade.
  size_t admission_degrades() const { return admission_degrades_; }

  /// The document profile predictions currently price against: running
  /// maxima of observed documents, or EngineOptions::assumed_profile
  /// before the first document completes.
  const DocumentProfile& observed_profile() const { return *profile_; }

  // --- byte-level entry points -------------------------------------

  /// Feeds the next chunk of XML text of the current document; the
  /// engine owns the streaming parser. Chunk boundaries are arbitrary.
  Status Feed(std::string_view chunk);

  /// Declares the current document's text complete, verifies
  /// well-formedness, and records its verdicts. The next Feed() starts
  /// the next document of the stream.
  Status FinishDocument();

  /// Convenience: one whole document, returning its verdicts (in
  /// subscription_ids() order). On failure the partial document is
  /// discarded, so the engine stays usable for the next document.
  Result<std::vector<bool>> FilterXml(std::string_view xml);

  /// Discards the current partially-consumed document (bytes or SAX),
  /// e.g. after a parse error on an incremental Feed(). No verdicts are
  /// recorded; the engine is ready for the next document.
  void AbortDocument();

  // --- SAX-level entry points --------------------------------------

  /// Feeds one SAX event; documents are delimited by startDocument /
  /// endDocument events.
  Status OnEvent(const Event& event) override;

  /// Convenience: one pre-parsed document, returning its verdicts.
  Result<std::vector<bool>> FilterEvents(const EventStream& events);

  // --- push-based results ------------------------------------------

  /// Attaches a result observer (nullptr detaches). Attach between
  /// documents; matches of the current document may otherwise be
  /// missed. The sink must outlive the engine or be detached first.
  void SetSink(ResultSink* sink) { result_sink_ = sink; }

  /// Per-subscription event ordinals (subscription_ids() order) at
  /// which the engine's verdicts became provably decided in the most
  /// recent completed document: the deciding event for matches, the
  /// endDocument ordinal for non-matches. The per-engine measurable
  /// behind the paper's buffering/commitment story — an engine's
  /// earliest-decision position bounds how long it must hold state.
  /// Results are recorded per evaluation slot and expanded to this
  /// per-subscription view on first access (then cached), so engines
  /// with heavy dedup never pay O(subscriptions) per document unless a
  /// caller asks for the full vector.
  const std::vector<size_t>& last_decided_at() const;

  /// Decided position of subscription `id` in the most recent
  /// document; same errors as Matched(id).
  Result<size_t> DecidedAt(std::string_view id) const;

  /// Documents whose tail was skipped by the facade's short-circuit
  /// path: every live subscription had committed mid-document, so no
  /// engine saw the rest. Per-slot cuts inside the matcher are not
  /// counted here.
  size_t documents_short_circuited() const {
    return documents_short_circuited_;
  }

  // --- results ------------------------------------------------------

  /// Number of completed documents. (Sink indices count every started
  /// document, aborted ones included.)
  size_t documents_seen() const { return documents_seen_; }

  /// Per-document verdict history (empty when keep_history is off).
  const std::vector<std::vector<bool>>& history() const { return history_; }

  /// Verdicts of the most recent completed document (lazily expanded
  /// from per-slot results, like last_decided_at()).
  const std::vector<bool>& last_verdicts() const;

  /// Verdict of subscription `id` in the most recent document. O(1):
  /// answered through the slot map without expanding the full vector.
  Result<bool> Matched(std::string_view id) const;

  /// Single-subscription convenience; kInvalidArgument unless exactly
  /// one subscription is registered.
  Result<bool> Matched() const;

  // --- memory accounting -------------------------------------------

  /// Stats of the current / most recent document (summed over the
  /// algorithms in use — under "auto", every engine some slot was
  /// routed to — for a filter-bank engine over its per-subscription
  /// filters, and for "frontier" over its walks, one per query shape,
  /// each counted once however many slots share it), plus the
  /// footprint of the engine's shared name SymbolTable in
  /// symbol_bytes. The engine owns one table for its whole pipeline:
  /// the parser interns element/attribute names into it as it
  /// tokenizes, subscriptions resolve their node tests against it, and
  /// every event reaches the matching engines as an integer symbol —
  /// this gauge is the once-per-distinct-name cost of that trade.
  const MemoryStats& stats() const;

  /// Peak live table/frontier entries across all documents seen so far.
  size_t peak_table_entries() const { return peak_table_entries_; }

  /// Peak buffered document text across all documents seen so far.
  size_t peak_buffered_bytes() const { return peak_buffered_bytes_; }

 private:
  /// One member matcher — an algorithm in use — with the map from its
  /// slots back to evaluation slots; defined in engine.cc. A fixed
  /// engine has exactly one member; "auto" adds one the first time a
  /// slot lands on an algorithm.
  struct Member;

  /// Where an evaluation slot runs: slot `local` of members_[member].
  struct Placement {
    size_t member = 0;
    size_t local = 0;
  };

  /// One evaluation slot: the representative compiled query, its
  /// canonical dedup key (empty = not dedupable, private slot), and how
  /// many logical subscriptions fan out of it.
  struct EvalSlot {
    std::string key;
    CompiledQuery query;
    size_t refs;
    bool tombstoned;
    Placement placement;
    /// Planner record, fixed at admission and re-priced at compaction:
    /// the peak the planner predicted (the bytes charged against the
    /// budget), and whether admission degraded it.
    size_t predicted_bytes = 0;
    bool degraded = false;
  };

  Engine(EngineOptions options, std::unique_ptr<SymbolTable> symbols,
         std::unique_ptr<DocumentProfile> owned_profile,
         const EngineSharedContext& effective);

  /// True when some live slot's predicted-cheapest engine under the
  /// current profile differs from the one evaluating it ("auto" only) —
  /// the condition that makes a tombstone-free compact worthwhile.
  bool NeedsReroute() const;

  /// Copy of the current profile, taken under profile_mutex_ when the
  /// profile is shared — planner pricing then works off a coherent
  /// snapshot even while replica threads fold document boundaries.
  DocumentProfile ProfileSnapshot() const;

  Status CheckSubscribable(const std::string& id) const;

  /// A member running a fresh, empty matcher of `engine`.
  Result<std::unique_ptr<Member>> NewMember(const std::string& engine);

  /// The members an empty engine starts with: one for a fixed engine,
  /// none under "auto". Create and CompactSubscriptions start here.
  Result<std::vector<std::unique_ptr<Member>>> FreshMembers();

  /// Subscribes `query` as evaluation slot `slot` on `engine`'s matcher
  /// in `members`, creating that engine's member when `members` has
  /// none (kept only once the slot lands on it). On failure `members`
  /// is unchanged.
  Result<Placement> PlaceSlot(size_t slot, const Query* query,
                              const std::string& engine,
                              std::vector<std::unique_ptr<Member>>* members);

  /// Feeds one event to every member, its name resolved once against
  /// the engine's SymbolTable.
  Status FeedMembers(const Event& event);

  /// Rebuilds slot_subs_ from sub_slot_ when stale (Subscribe /
  /// Unsubscribe mark it dirty; both are barred mid-document, so the
  /// map cannot go stale while a document streams).
  void EnsureFanout();

  /// Delivers the kEarliest matches buffered for pending_ordinal_ in
  /// ascending subscription order, then clears the buffer.
  void FlushPendingMatches();

  /// Relay target: a member decided eval slot `slot`'s verdict (a
  /// match) at `event_ordinal`; fans out to the slot's subscribers.
  void HandleSlotMatched(size_t slot, size_t event_ordinal);

  /// Fills the last_verdicts_/last_decided_at_ caches from the
  /// per-slot results of the most recent document, if stale.
  void MaterializeExpansion() const;

  /// For event input: mirrors one event's effect on the open-element
  /// depth and rejects a start past max_element_depth, an unbalanced
  /// endElement and an endDocument with open elements, with or without
  /// short_circuit: not every engine tracks balance, and engines past
  /// their commitment no longer see the events that would have failed
  /// them. On bytes the parser performs these checks.
  Status CheckShape(const Event& event);

  /// Document-completion bookkeeping at endDocument: verdicts read off
  /// the members' reports, decided positions, history, peak gauges,
  /// deferred sink deliveries. Expects event_ordinal_ at the
  /// endDocument ordinal.
  void FinalizeDocument();

  EngineOptions options_;
  /// The pipeline's shared name-interning table. Owned here — the
  /// facade outlives the parser that interns into it and the matchers
  /// that resolve against it; declared before members_ so it is
  /// destroyed after everything referencing it.
  std::unique_ptr<SymbolTable> symbols_;
  /// Privately owned document profile — null for a replica engine
  /// bound to an EngineSharedContext (the shared profile then outlives
  /// the engine by the caller's contract).
  std::unique_ptr<DocumentProfile> owned_profile_;
  /// The pipeline's document profile: the owned one above or the
  /// caller's, assumed_profile until the first document completes,
  /// running maxima afterwards. Always non-null after construction.
  DocumentProfile* profile_ = nullptr;
  /// Locked around the document-boundary profile fold when the profile
  /// is shared across replica threads; null when the engine owns it.
  std::mutex* profile_mutex_ = nullptr;
  std::vector<std::unique_ptr<Member>> members_;

  // --- evaluation slots (dedup side) ---
  std::vector<EvalSlot> slots_;
  /// Canonical key -> eval slot, live (non-tombstoned) slots only.
  std::map<std::string, size_t> slot_of_key_;
  size_t tombstoned_slots_ = 0;
  size_t automaton_rebuilds_ = 0;

  // --- logical subscriptions (public side), aligned by index ---
  std::vector<std::string> ids_;
  std::vector<size_t> sub_slot_;  // subscription -> its eval slot
  /// The subscriber's own compiled query, or nullopt for the slot
  /// representative (whose query lives in the slot so it outlives any
  /// one subscriber).
  std::vector<std::unique_ptr<CompiledQuery>> sub_queries_;
  std::vector<DeliveryMode> modes_;
  std::unordered_map<std::string, size_t> id_index_;  // id -> sub index

  /// Eval slot -> subscriber indices, for sink fan-out; rebuilt lazily.
  std::vector<std::vector<size_t>> slot_subs_;
  bool fanout_dirty_ = false;

  std::unique_ptr<XmlParser> parser_;  // live while a byte doc is open
  /// Scratch for the zero-copy parser: decoded entities and
  /// streaming-mode text copies of the document being fed. One Reset()
  /// per document (blocks recycled), performed after the matcher has
  /// fully consumed endDocument — event views stay valid exactly as
  /// long as the lifetime contract in xml/event.h promises.
  Arena parse_arena_;
  /// Set for the duration of FilterXml: the whole document is a live
  /// caller buffer, so the parser may emit views straight into it.
  bool stable_parse_ = false;
  bool in_document_ = false;

  // --- current-document push/skip state ---
  ResultSink* result_sink_ = nullptr;
  bool short_circuited_ = false;  // skipping the rest of this document
  size_t element_depth_ = 0;      // open elements of event input (CheckShape)
  size_t event_ordinal_ = 0;      // ordinal of the next event
  size_t matched_count_ = 0;      // eval slots decided (matched) so far
  std::vector<size_t> decided_at_;  // per eval slot, current document
  /// kEarliest deliveries buffered for pending_ordinal_ so fan-out
  /// across slots still reaches the sink in ascending subscription
  /// order within one ordinal.
  std::vector<size_t> pending_matches_;
  size_t pending_ordinal_ = 0;

  size_t documents_seen_ = 0;
  /// Documents started, completed or aborted: the current document's
  /// sink index is documents_started_ - 1.
  size_t documents_started_ = 0;
  size_t documents_short_circuited_ = 0;
  std::vector<std::vector<bool>> history_;

  // --- planning and admission ---
  /// Streaming measurement of the current document, folded into
  /// profile_ at each document boundary.
  DocumentStatsCollector collector_;
  size_t predicted_total_ = 0;   ///< sum over live slots' predicted_bytes
  size_t admission_rejects_ = 0;
  size_t admission_degrades_ = 0;

  // --- last-document results, recorded per eval slot ---
  std::vector<bool> slot_verdicts_;
  std::vector<size_t> slot_decided_at_;
  /// Subscriptions registered when the last document completed; a sub
  /// index >= this was added afterwards and has no verdict yet.
  /// Unsubscribing below the boundary shifts it down in tandem, so the
  /// invariant "sub < boundary had its slot evaluated last document"
  /// survives churn.
  size_t subs_at_last_doc_ = 0;
  /// Per-subscription expansions of the slot results, built on demand
  /// (MaterializeExpansion) so dedup-heavy engines pay O(slots), not
  /// O(subscriptions), per document.
  mutable std::vector<bool> last_verdicts_;
  mutable std::vector<size_t> last_decided_at_;
  mutable bool expansion_valid_ = false;
  size_t peak_table_entries_ = 0;
  size_t peak_buffered_bytes_ = 0;
  mutable MemoryStats stats_;  // member stats + symbol_bytes, on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_ENGINE_H_
