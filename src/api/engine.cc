#include "xpstream/engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/canonical.h"
#include "planner/cost_model.h"
#include "stream/engine_registry.h"
#include "stream/matcher.h"
#include "xml/parser.h"
#include "xml/symbol_table.h"
#include "xpath/ast.h"

namespace xpstream {

struct Engine::Member : MatchSink {
  Member(Engine* owner, std::unique_ptr<Matcher> engine_matcher)
      : engine(owner), matcher(std::move(engine_matcher)) {
    matcher->SetSink(this);
    // The per-slot commitment cut.
    matcher->EnableShortCircuit(engine->options_.short_circuit);
  }
  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;

  void OnSlotMatched(size_t local, size_t ordinal) override {
    engine->HandleSlotMatched(slots[local], ordinal);
  }

  Engine* engine;
  std::unique_ptr<Matcher> matcher;
  std::vector<size_t> slots;  ///< member slot -> evaluation slot
};

Engine::Engine(EngineOptions options, std::unique_ptr<SymbolTable> symbols,
               std::unique_ptr<DocumentProfile> owned_profile,
               const EngineSharedContext& effective)
    : options_(std::move(options)),
      symbols_(std::move(symbols)),
      owned_profile_(std::move(owned_profile)),
      profile_(effective.profile),
      profile_mutex_(effective.profile_mutex) {}

Engine::~Engine() = default;

namespace {

/// Where a new evaluation slot runs, read off one query plan.
struct SlotRoute {
  /// The configured engine, or under "auto" the plan's Choice(), which
  /// always exists: "naive" accepts every query.
  std::string engine;
  /// The predicted peak bytes admission charges: that engine's plan
  /// row.
  size_t price = 0;
};

/// Plans `query` once against `profile`, for both routing and pricing
/// on `engine` (an EngineOptions::engine name).
SlotRoute RouteSlot(const std::string& engine, const CompiledQuery& query,
                    const DocumentProfile& profile) {
  const QueryPlan plan = BuildQueryPlan(*query.query(), profile);
  SlotRoute route;
  for (const EnginePrediction& prediction : plan.ranking) {
    // Under "auto" the first supported row: the plan's Choice() (the
    // ranking lists supported engines first, cheapest first).
    if (engine == "auto" ? prediction.supported : prediction.engine == engine) {
      route.engine = prediction.engine;
      route.price = prediction.cost.PredictedPeakBytes();
      break;
    }
  }
  return route;
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Create(const EngineOptions& options) {
  return Create(options, EngineSharedContext{});
}

Result<std::unique_ptr<Engine>> Engine::Create(
    const EngineOptions& options, const EngineSharedContext& shared) {
  // One SymbolTable per engine pipeline: the facade's parser interns
  // into it, subscriptions resolve their node tests against it, and the
  // member matchers dispatch on its ids. It is never shared across pool
  // replicas — interning is single-threaded by design. The
  // DocumentProfile *is* shareable: when the caller supplies one (an
  // EnginePool wiring up replicas) this engine borrows it; otherwise it
  // owns a private one.
  auto symbols = std::make_unique<SymbolTable>();
  std::unique_ptr<DocumentProfile> owned_profile;
  EngineSharedContext effective = shared;
  if (effective.profile == nullptr) {
    // The pipeline's document profile starts as the caller's asserted
    // workload shape; observed documents take over at the first boundary.
    owned_profile = std::make_unique<DocumentProfile>(options.assumed_profile);
    effective.profile = owned_profile.get();
    effective.profile_mutex = nullptr;  // private profile needs no lock
  }

  std::unique_ptr<Engine> engine(new Engine(
      options, std::move(symbols), std::move(owned_profile), effective));
  auto members = engine->FreshMembers();
  if (!members.ok()) return members.status();
  engine->members_ = std::move(members).value();
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Create(std::string_view engine_name) {
  EngineOptions options;
  options.engine = std::string(engine_name);
  return Create(options);
}

std::vector<std::string> Engine::AvailableEngines() {
  std::vector<std::string> names = EngineNames();
  std::sort(names.begin(), names.end());
  return names;
}

Status Engine::CheckSubscribable(const std::string& id) const {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot subscribe while a document is being consumed");
  }
  // A hash lookup, not a scan: at a million standing subscriptions the
  // old std::find made every Subscribe O(n) — quadratic registration.
  if (id_index_.find(id) != id_index_.end()) {
    return Status::InvalidArgument("duplicate subscription id: " + id);
  }
  return Status::OK();
}

DocumentProfile Engine::ProfileSnapshot() const {
  std::unique_lock<std::mutex> lock;
  if (profile_mutex_ != nullptr) {
    lock = std::unique_lock<std::mutex>(*profile_mutex_);
  }
  return *profile_;
}

Result<std::unique_ptr<Engine::Member>> Engine::NewMember(
    const std::string& engine) {
  auto matcher = CreateMatcher(engine, symbols_.get());
  if (!matcher.ok()) return matcher.status();
  return std::make_unique<Member>(this, std::move(matcher).value());
}

Result<std::vector<std::unique_ptr<Engine::Member>>> Engine::FreshMembers() {
  std::vector<std::unique_ptr<Member>> members;
  if (options_.engine != "auto") {
    auto member = NewMember(options_.engine);
    if (!member.ok()) return member.status();
    members.push_back(std::move(member).value());
  }
  return members;
}

Result<Engine::Placement> Engine::PlaceSlot(
    size_t slot, const Query* query, const std::string& engine,
    std::vector<std::unique_ptr<Member>>* members) {
  size_t index = 0;
  while (index < members->size() &&
         (*members)[index]->matcher->name() != engine) {
    ++index;
  }
  std::unique_ptr<Member> created;
  if (index == members->size()) {
    auto member = NewMember(engine);
    if (!member.ok()) return member.status();
    created = std::move(member).value();
  }
  Member& member = created != nullptr ? *created : *(*members)[index];
  const size_t local = member.matcher->NumSubscriptions();
  XPS_RETURN_IF_ERROR(member.matcher->Subscribe(local, query));
  member.slots.push_back(slot);
  if (created != nullptr) members->push_back(std::move(created));
  return Placement{index, local};
}

Status Engine::Subscribe(std::string id, CompiledQuery query,
                         DeliveryMode mode) {
  XPS_RETURN_IF_ERROR(CheckSubscribable(id));
  if (query.query() == nullptr) {
    return Status::InvalidArgument(
        "cannot subscribe a moved-from CompiledQuery");
  }

  // Canonicalize for dedup. A key failure (automorphism budget, exotic
  // shape) downgrades to a private slot — correct, just unshared; it
  // must never fail a subscription that the engine itself accepts.
  std::string key;
  auto canonical = CanonicalQueryKey(*query.query());
  if (canonical.ok()) key = std::move(canonical).value();

  auto hit = key.empty() ? slot_of_key_.end() : slot_of_key_.find(key);
  if (hit != slot_of_key_.end()) {
    // Equivalent query already evaluating: pure appends from here, so
    // a duplicate subscription can never fail and never touches the
    // matcher or symbol table.
    const size_t slot = hit->second;
    slots_[slot].refs++;
    id_index_.emplace(id, ids_.size());
    ids_.push_back(std::move(id));
    sub_slot_.push_back(slot);
    sub_queries_.push_back(
        std::make_unique<CompiledQuery>(std::move(query)));
    modes_.push_back(mode);
    fanout_dirty_ = true;
    return Status::OK();
  }

  // New evaluation slot: one plan against the current document profile
  // both prices it and routes it. Admission control comes first: a
  // prediction that would overrun the budget rejects or degrades
  // *before* any facade or matcher state mutates.
  const SlotRoute route =
      RouteSlot(options_.engine, query, ProfileSnapshot());
  const size_t predicted = route.price;
  bool degraded = false;
  if (options_.memory_budget_bytes != 0 &&
      predicted_total_ + predicted > options_.memory_budget_bytes) {
    if (options_.admission == AdmissionPolicy::kReject) {
      ++admission_rejects_;
      return Status::ResourceExhausted(
          "subscription predicted to peak at " + std::to_string(predicted) +
          " bytes; " +
          std::to_string(options_.memory_budget_bytes - std::min(
              options_.memory_budget_bytes, predicted_total_)) +
          " of memory_budget_bytes = " +
          std::to_string(options_.memory_budget_bytes) + " remain");
    }
    degraded = true;
    ++admission_degrades_;
    mode = DeliveryMode::kAtEnd;  // no early push work for the degraded
  }

  // A member subscribes *next*: a rejected query (outside the routed
  // engine's fragment) still returns before any facade state mutates,
  // extending the engines' rejected-Subscribe non-pollution guarantee
  // to the dedup layer.
  const size_t slot = slots_.size();
  auto placement = PlaceSlot(slot, query.query(), route.engine, &members_);
  if (!placement.ok()) return placement.status();
  if (!key.empty()) slot_of_key_.emplace(key, slot);
  slots_.push_back(EvalSlot{std::move(key), std::move(query), 1, false,
                            *placement, predicted, degraded});
  predicted_total_ += predicted;
  id_index_.emplace(id, ids_.size());
  ids_.push_back(std::move(id));
  sub_slot_.push_back(slot);
  sub_queries_.push_back(nullptr);  // representative: query lives in the slot
  modes_.push_back(mode);
  fanout_dirty_ = true;
  return Status::OK();
}

Status Engine::Subscribe(std::string id, std::string_view xpath,
                         DeliveryMode mode) {
  auto query = CompileQuery(xpath);
  if (!query.ok()) return query.status();
  return Subscribe(std::move(id), std::move(query).value(), mode);
}

Status Engine::Unsubscribe(std::string_view id) {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot unsubscribe while a document is being consumed");
  }
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  const size_t sub = it->second;
  const size_t slot = sub_slot_[sub];
  if (slots_[slot].refs == 1) {
    // Last subscriber of the slot: tombstone it in its member before
    // mutating anything, so a failed tombstone leaves the facade
    // untouched. Tombstoning never rebuilds the automaton — reclaiming
    // the capacity is CompactSubscriptions()' job.
    const Placement& placement = slots_[slot].placement;
    XPS_RETURN_IF_ERROR(
        members_[placement.member]->matcher->Unsubscribe(placement.local));
    slots_[slot].tombstoned = true;
    ++tombstoned_slots_;
    // Release the slot's budget charge: the matcher stopped evaluating
    // it, so its predicted peak no longer counts against admission.
    predicted_total_ -= std::min(predicted_total_, slots_[slot].predicted_bytes);
    if (!slots_[slot].key.empty()) slot_of_key_.erase(slots_[slot].key);
  }
  slots_[slot].refs--;
  // Later subscriptions shift down one index (the documented public
  // semantics); survivors keep their last-document results because
  // those live per slot and the survivors' slot mapping is intact.
  ids_.erase(ids_.begin() + static_cast<ptrdiff_t>(sub));
  sub_slot_.erase(sub_slot_.begin() + static_cast<ptrdiff_t>(sub));
  sub_queries_.erase(sub_queries_.begin() + static_cast<ptrdiff_t>(sub));
  modes_.erase(modes_.begin() + static_cast<ptrdiff_t>(sub));
  id_index_.erase(it);
  for (auto& entry : id_index_) {
    if (entry.second > sub) --entry.second;
  }
  if (sub < subs_at_last_doc_) --subs_at_last_doc_;
  expansion_valid_ = false;
  fanout_dirty_ = true;
  return Status::OK();
}

Status Engine::CompactSubscriptions() {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot compact while a document is being consumed");
  }
  // A compaction is worth a rebuild when there is capacity to reclaim
  // *or* the observed profile has shifted the planner's ranking — under
  // "auto" the rebuild re-routes every slot to its now-cheapest engine.
  if (tombstoned_slots_ == 0 && !NeedsReroute()) return Status::OK();

  // Fresh members plan against the *observed* profile, not the assumed
  // one the old ones may have been built with: one plan per survivor
  // re-prices it and re-routes it. Re-subscribe the live slots densely,
  // in old slot order. Everything before the commit point below is
  // fallible but touches only the fresh members — on any failure the
  // old ones keep serving, unchanged.
  auto fresh = FreshMembers();
  if (!fresh.ok()) return fresh.status();
  std::vector<size_t> new_of_old(slots_.size(), kNoEventOrdinal);
  std::vector<Placement> placements;
  std::vector<size_t> prices;
  for (size_t old = 0; old < slots_.size(); ++old) {
    if (slots_[old].tombstoned) continue;
    const SlotRoute route =
        RouteSlot(options_.engine, slots_[old].query, ProfileSnapshot());
    auto placement = PlaceSlot(placements.size(), slots_[old].query.query(),
                               route.engine, &*fresh);
    if (!placement.ok()) return placement.status();
    new_of_old[old] = placements.size();
    placements.push_back(*placement);
    prices.push_back(route.price);
  }
  const size_t next = placements.size();

  // Commit point: renumber facade state and swap the members in. The
  // per-slot results of the last document follow their slots through
  // the renumbering, so survivors stay queryable across a compaction.
  std::vector<bool> compact_verdicts(next, false);
  std::vector<size_t> compact_decided(next, kNoEventOrdinal);
  for (size_t old = 0; old < slots_.size(); ++old) {
    if (new_of_old[old] == kNoEventOrdinal) continue;
    if (old < slot_verdicts_.size()) {
      compact_verdicts[new_of_old[old]] = slot_verdicts_[old];
    }
    if (old < slot_decided_at_.size()) {
      compact_decided[new_of_old[old]] = slot_decided_at_[old];
    }
  }
  slot_verdicts_ = std::move(compact_verdicts);
  slot_decided_at_ = std::move(compact_decided);
  std::vector<EvalSlot> live;
  live.reserve(next);
  slot_of_key_.clear();
  predicted_total_ = 0;
  for (auto& slot : slots_) {
    if (slot.tombstoned) continue;
    const size_t s = live.size();
    if (!slot.key.empty()) slot_of_key_[slot.key] = s;
    slot.placement = placements[s];
    slot.predicted_bytes = prices[s];
    predicted_total_ += prices[s];
    live.push_back(std::move(slot));
  }
  slots_ = std::move(live);
  for (size_t& s : sub_slot_) s = new_of_old[s];
  tombstoned_slots_ = 0;
  members_ = std::move(fresh).value();
  ++automaton_rebuilds_;
  expansion_valid_ = false;
  fanout_dirty_ = true;
  return Status::OK();
}

bool Engine::NeedsReroute() const {
  // Only "auto" routes per slot; a fixed engine has nothing to
  // re-route. Planning every live slot is the same work a Subscribe
  // does once — acceptable for an explicit maintenance call.
  if (options_.engine != "auto") return false;
  for (const EvalSlot& slot : slots_) {
    if (slot.tombstoned) continue;
    const SlotRoute route =
        RouteSlot(options_.engine, slot.query, ProfileSnapshot());
    if (route.engine != members_[slot.placement.member]->matcher->name()) {
      return true;
    }
  }
  return false;
}

Result<Engine::SubscriptionPlan> Engine::PlanOf(std::string_view id) const {
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  const EvalSlot& slot = slots_[sub_slot_[it->second]];
  return SubscriptionPlan{members_[slot.placement.member]->matcher->name(),
                          slot.predicted_bytes, slot.degraded};
}

Result<const CompiledQuery*> Engine::SubscribedQuery(
    std::string_view id) const {
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  const size_t sub = it->second;
  // Duplicate subscribers keep their own compiled query; the slot
  // representative's lives in the slot itself.
  const CompiledQuery* query = sub_queries_[sub] != nullptr
                                   ? sub_queries_[sub].get()
                                   : &slots_[sub_slot_[sub]].query;
  return query;
}

Status Engine::Feed(std::string_view chunk) {
  if (parser_ == nullptr) {
    // The parser interns names into the engine's table as it tokenizes,
    // so on the byte path every event reaches the matcher with its
    // symbol resolved — no hashing downstream. Text rides the engine's
    // reusable arena (or, under FilterXml, views the caller's buffer):
    // zero per-event allocations either way.
    XmlParserOptions parser_options;
    parser_options.symbols = symbols_.get();
    parser_options.arena = &parse_arena_;
    parser_options.stable_input = stable_parse_;
    parser_ = std::make_unique<XmlParser>(this, parser_options);
    parser_->SetMaxElementDepth(options_.max_element_depth);
    parser_->SetMaxEntityExpansionBytes(options_.max_entity_expansion_bytes);
  }
  return parser_->Feed(chunk);
}

Status Engine::FinishDocument() {
  if (parser_ == nullptr) {
    return Status::InvalidArgument("no document text was fed");
  }
  Status status = parser_->Finish();
  // One parser per document: the next Feed() starts the next document.
  // The matcher consumed endDocument inside Finish(), so the arena's
  // views are dead and its blocks can be recycled.
  parser_.reset();
  parse_arena_.Reset();
  if (!status.ok()) AbortDocument();
  return status;
}

Result<std::vector<bool>> Engine::FilterXml(std::string_view xml) {
  if (parser_ != nullptr || in_document_) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  // `xml` stays alive for the whole parse+match, so the parser may back
  // event views with it directly — the zero-copy whole-document path.
  stable_parse_ = true;
  Status status = Feed(xml);
  if (status.ok()) status = FinishDocument();
  stable_parse_ = false;
  if (!status.ok()) {
    AbortDocument();
    return status;
  }
  return last_verdicts();
}

void Engine::AbortDocument() {
  parser_.reset();
  parse_arena_.Reset();
  in_document_ = false;  // the next startDocument resets the matcher
  short_circuited_ = false;
  pending_matches_.clear();
}

void Engine::EnsureFanout() {
  if (!fanout_dirty_ && slot_subs_.size() == slots_.size()) return;
  slot_subs_.assign(slots_.size(), {});
  for (size_t sub = 0; sub < sub_slot_.size(); ++sub) {
    slot_subs_[sub_slot_[sub]].push_back(sub);
  }
  fanout_dirty_ = false;
}

void Engine::FlushPendingMatches() {
  if (pending_matches_.empty()) return;
  // Fan-out appends slot by slot in report order, member after member;
  // subscriber order within the ordinal is restored here, the one place
  // that orders deliveries across members.
  std::sort(pending_matches_.begin(), pending_matches_.end());
  for (size_t sub : pending_matches_) {
    result_sink_->OnMatch(sub, documents_started_ - 1, pending_ordinal_);
  }
  pending_matches_.clear();
}

void Engine::HandleSlotMatched(size_t slot, size_t event_ordinal) {
  if (slot >= decided_at_.size() ||
      decided_at_[slot] != kNoEventOrdinal) {
    return;  // already decided (defensive: matchers report once)
  }
  decided_at_[slot] = event_ordinal;
  ++matched_count_;
  if (result_sink_ == nullptr) return;
  // Buffer instead of delivering: two slots deciding at the same event
  // must reach the sink in subscriber order, which fan-out would
  // otherwise scramble (neither slot order nor member order need be
  // subscriber order).
  if (event_ordinal != pending_ordinal_) FlushPendingMatches();
  pending_ordinal_ = event_ordinal;
  EnsureFanout();
  for (size_t sub : slot_subs_[slot]) {
    if (modes_[sub] == DeliveryMode::kEarliest) {
      pending_matches_.push_back(sub);
    }
  }
}

void Engine::MaterializeExpansion() const {
  if (expansion_valid_) return;
  last_verdicts_.resize(subs_at_last_doc_);
  last_decided_at_.resize(subs_at_last_doc_);
  for (size_t sub = 0; sub < subs_at_last_doc_; ++sub) {
    last_verdicts_[sub] = slot_verdicts_[sub_slot_[sub]];
    last_decided_at_[sub] = slot_decided_at_[sub_slot_[sub]];
  }
  expansion_valid_ = true;
}

const std::vector<bool>& Engine::last_verdicts() const {
  MaterializeExpansion();
  return last_verdicts_;
}

const std::vector<size_t>& Engine::last_decided_at() const {
  MaterializeExpansion();
  return last_decided_at_;
}

Status Engine::CheckShape(const Event& event) {
  // The facade checks element balance of event input itself, with or
  // without the cut: not every engine checks it, and under the cut the
  // engines still fed may not check what a cut one would have. So every
  // engine rejects the same malformed event stream. (Byte input is
  // checked by the XmlParser instead, through the counted tail too.)
  switch (event.type) {
    case EventType::kStartElement:
      if (options_.max_element_depth != 0 &&
          element_depth_ >= options_.max_element_depth) {
        return Status::NotWellFormed(
            "element depth exceeds max_element_depth = " +
            std::to_string(options_.max_element_depth));
      }
      ++element_depth_;
      break;
    case EventType::kEndElement:
      if (element_depth_ == 0) {
        return Status::NotWellFormed("unbalanced endElement");
      }
      --element_depth_;
      break;
    case EventType::kEndDocument:
      if (element_depth_ != 0) {
        return Status::NotWellFormed("endDocument with open elements");
      }
      break;
    default:
      break;
  }
  return Status::OK();
}

void Engine::FinalizeDocument() {
  in_document_ = false;
  // Fold the document's measurements into the pipeline profile: from
  // here on, the planner prices subscriptions against observed reality
  // instead of the assumed profile. The symbol table holds every
  // distinct name the pipeline has interned — the alphabet size of the
  // DFA blowup bound. A pool-shared profile is fed from every replica's
  // worker thread, hence the (optional) lock.
  {
    std::unique_lock<std::mutex> lock;
    if (profile_mutex_ != nullptr) {
      lock = std::unique_lock<std::mutex>(*profile_mutex_);
    }
    profile_->Observe(collector_.stats(), symbols_->size());
  }
  if (result_sink_ != nullptr) FlushPendingMatches();
  // The members' reports are the verdicts: a slot reported by now
  // matched. One never reported did not, decided at endDocument.
  slot_verdicts_.resize(decided_at_.size());
  for (size_t slot = 0; slot < decided_at_.size(); ++slot) {
    slot_verdicts_[slot] = decided_at_[slot] != kNoEventOrdinal;
    if (!slot_verdicts_[slot]) decided_at_[slot] = event_ordinal_;
  }
  // Everything O(subscriptions) below is deferred or sink-gated; a
  // sink-less caller that samples results per id pays O(slots) here.
  slot_decided_at_ = decided_at_;
  subs_at_last_doc_ = ids_.size();
  expansion_valid_ = false;
  if (options_.keep_history) {
    MaterializeExpansion();
    history_.push_back(last_verdicts_);
  }
  const size_t doc_index = documents_started_ - 1;
  ++documents_seen_;
  const MemoryStats& document_stats = stats();
  peak_table_entries_ = std::max(peak_table_entries_,
                                 document_stats.table_entries().peak());
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_,
                                  document_stats.buffered_bytes().peak());
  if (result_sink_ != nullptr) {
    MaterializeExpansion();
    for (size_t sub = 0; sub < subs_at_last_doc_; ++sub) {
      if (modes_[sub] == DeliveryMode::kAtEnd && last_verdicts_[sub]) {
        result_sink_->OnMatch(sub, doc_index, last_decided_at_[sub]);
      }
    }
    result_sink_->OnDocumentDone(doc_index, last_verdicts_);
  }
}

Status Engine::OnEvent(const Event& event) {
  // Start each document (members reset themselves on startDocument),
  // harvest verdicts and fold peak gauges at each document end — plus
  // push delivery and the short-circuit skip path.
  switch (event.type) {
    case EventType::kStartDocument:
      if (in_document_) {
        return Status::NotWellFormed("nested startDocument in stream");
      }
      in_document_ = true;
      ++documents_started_;  // the document's index, aborted or not
      short_circuited_ = false;
      element_depth_ = 0;
      event_ordinal_ = 0;
      matched_count_ = 0;
      decided_at_.assign(slots_.size(), kNoEventOrdinal);
      pending_matches_.clear();
      pending_ordinal_ = 0;
      collector_.Reset();
      collector_.OnEvent(event);
      XPS_RETURN_IF_ERROR(FeedMembers(event));
      if (result_sink_ != nullptr) FlushPendingMatches();
      ++event_ordinal_;
      return Status::OK();
    case EventType::kEndDocument: {
      if (!in_document_) {
        return Status::NotWellFormed("endDocument outside a document");
      }
      collector_.OnEvent(event);
      if (parser_ == nullptr) XPS_RETURN_IF_ERROR(CheckShape(event));
      if (short_circuited_) {
        // Every live slot matched mid-document: no member needs the end.
        ++documents_short_circuited_;
      } else {
        XPS_RETURN_IF_ERROR(FeedMembers(event));
      }
      FinalizeDocument();
      return Status::OK();
    }
    default: {
      if (!in_document_) {
        return Status::NotWellFormed("content outside a document");
      }
      // Shape and depth cap before the event reaches matcher or skip
      // path: a hostile deep document fails cleanly instead of growing
      // per-level engine state without bound. The parser checks both
      // on bytes.
      if (parser_ == nullptr) XPS_RETURN_IF_ERROR(CheckShape(event));
      // The profile measures the whole document, skipped tail included.
      collector_.OnEvent(event);
      if (!short_circuited_) {
        XPS_RETURN_IF_ERROR(FeedMembers(event));
        // Per-event streaming keeps push delivery synchronous:
        // everything the matcher decided at this event flushes before
        // the next one.
        if (result_sink_ != nullptr) FlushPendingMatches();
      } else if (parser_ == nullptr) {
        // Past the cut on event input only this interns the tail's
        // names, which the profile's distinct_names counts. (The parser
        // interns them on bytes.)
        ResolveEventName(event, symbols_.get());
      }
      ++event_ordinal_;
      // Decided means matched, per eval slot: tombstoned slots never
      // decide (the matcher dropped them), so the cut fires when every
      // *live* slot has matched — every logical subscription is decided.
      const size_t live_slots = slots_.size() - tombstoned_slots_;
      if (options_.short_circuit && live_slots > 0 &&
          matched_count_ == live_slots) {
        short_circuited_ = true;
        // On bytes the parser validates the tail and counts it into
        // the profile itself: no further event reaches the facade
        // before endDocument.
        if (parser_ != nullptr) parser_->CountRestInto(&collector_);
      }
      return Status::OK();
    }
  }
}

Result<std::vector<bool>> Engine::FilterEvents(const EventStream& events) {
  if (parser_ != nullptr || in_document_) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  for (const Event& event : events) {
    Status status = OnEvent(event);
    if (!status.ok()) {
      AbortDocument();  // discard the partial document, stay usable
      return status;
    }
  }
  if (in_document_) {
    AbortDocument();
    return Status::NotWellFormed("event stream ended mid-document");
  }
  return last_verdicts();
}

Result<bool> Engine::Matched(std::string_view id) const {
  if (documents_seen_ == 0) {
    return Status::InvalidArgument("no document has completed yet");
  }
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  if (it->second >= subs_at_last_doc_) {
    // Subscribed between documents: no verdict until the next one.
    return Status::InvalidArgument("subscription \"" + std::string(id) +
                                   "\" was added after the last document");
  }
  return static_cast<bool>(slot_verdicts_[sub_slot_[it->second]]);
}

Result<bool> Engine::Matched() const {
  if (ids_.size() != 1) {
    return Status::InvalidArgument(
        "Matched() without an id needs exactly one subscription");
  }
  return Matched(ids_.front());
}

Result<size_t> Engine::DecidedAt(std::string_view id) const {
  if (documents_seen_ == 0) {
    return Status::InvalidArgument("no document has completed yet");
  }
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  if (it->second >= subs_at_last_doc_) {
    return Status::InvalidArgument("subscription \"" + std::string(id) +
                                   "\" was added after the last document");
  }
  return slot_decided_at_[sub_slot_[it->second]];
}

Status Engine::FeedMembers(const Event& event) {
  const Symbol name = ResolveEventName(event, symbols_.get());
  for (const auto& member : members_) {
    XPS_RETURN_IF_ERROR(member->matcher->OnSymbolizedEvent(event, name));
  }
  return Status::OK();
}

const MemoryStats& Engine::stats() const {
  stats_.Reset();
  for (const auto& member : members_) {
    stats_.Accumulate(member->matcher->stats());
  }
  // The shared table's footprint: the once-per-distinct-name cost that
  // replaces per-event string work across the whole pipeline.
  stats_.symbol_bytes().Set(symbols_->FootprintBytes());
  // Scratch retained by the zero-copy parser's per-document arena.
  stats_.arena_bytes().Set(parse_arena_.FootprintBytes());
  return stats_;
}

}  // namespace xpstream
