#include "planner/auto_matcher.h"

#include <algorithm>

#include "planner/cost_model.h"
#include "stream/engine_registry.h"
#include "xpath/ast.h"

namespace xpstream {

class AutoMatcher::Relay : public MatchSink {
 public:
  Relay(AutoMatcher* owner, size_t member) : owner_(owner), member_(member) {}
  void OnSlotMatched(size_t slot, size_t ordinal) override {
    owner_->OnMemberMatch(member_, slot, ordinal);
  }

 private:
  AutoMatcher* owner_;
  size_t member_;
};

struct AutoMatcher::Member {
  std::string engine;
  std::unique_ptr<Matcher> matcher;
  std::unique_ptr<Relay> relay;
  std::vector<size_t> local_to_global;
};

AutoMatcher::AutoMatcher(const PipelineContext& context) : context_(context) {
  BindSymbols(context.symbols);
  // Members are created against the matcher's own (possibly private)
  // table so that one name resolution per event serves every member.
  context_.symbols = symbols();
}

Result<std::unique_ptr<Matcher>> AutoMatcher::Create(
    const PipelineContext& context) {
  return std::unique_ptr<Matcher>(new AutoMatcher(context));
}

std::string AutoMatcher::EngineForSlot(size_t slot) const {
  if (slot >= routes_.size()) return name();
  return members_[routes_[slot].member].engine;
}

Result<size_t> AutoMatcher::EnsureMember(const std::string& engine) {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].engine == engine) return i;
  }
  auto matcher = EngineRegistry::Global().CreateMatcher(engine, context_);
  if (!matcher.ok()) return matcher.status();
  Member member;
  member.engine = engine;
  member.matcher = std::move(matcher).value();
  member.matcher->EnableShortCircuit(short_circuit_);
  member.relay = std::make_unique<Relay>(this, members_.size());
  member.matcher->SetSink(member.relay.get());
  members_.push_back(std::move(member));
  return members_.size() - 1;
}

Status AutoMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != routes_.size()) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  // Price the query against the stream observed so far (assumed
  // defaults before the first document) and walk the ranking: the
  // predicted-cheapest engine that statically accepts the query gets
  // it. A member that still rejects at Subscribe time (the static check
  // is advisory) falls through to the next candidate.
  static const DocumentProfile kAssumed;
  const DocumentProfile& profile =
      context_.profile != nullptr ? *context_.profile : kAssumed;
  const QueryPlan plan = BuildQueryPlan(*query, profile);
  Status last = Status::Unsupported("no engine accepts this query");
  for (const EnginePrediction& prediction : plan.ranking) {
    if (!prediction.supported) continue;
    auto member_index = EnsureMember(prediction.engine);
    if (!member_index.ok()) return member_index.status();
    Member& member = members_[member_index.value()];
    const size_t local = member.matcher->NumSubscriptions();
    Status status = member.matcher->Subscribe(local, query);
    if (status.ok()) {
      member.local_to_global.push_back(slot);
      routes_.push_back(Route{member_index.value(), local});
      return Status::OK();
    }
    if (status.code() != StatusCode::kUnsupported) return status;
    last = std::move(status);
  }
  return last;
}

Status AutoMatcher::Unsubscribe(size_t slot) {
  if (slot >= routes_.size()) {
    return Status::InvalidArgument("unknown subscription slot");
  }
  // The member tombstones its local slot; the route stays so the slot
  // keeps its number (and its EngineForSlot answer) like everywhere
  // else in the matcher layer.
  const Route& route = routes_[slot];
  return members_[route.member].matcher->Unsubscribe(route.local);
}

Status AutoMatcher::Reset() {
  pending_.clear();
  for (Member& member : members_) {
    XPS_RETURN_IF_ERROR(member.matcher->Reset());
  }
  return Status::OK();
}

void AutoMatcher::OnMemberMatch(size_t member, size_t local, size_t ordinal) {
  pending_.emplace_back(ordinal, members_[member].local_to_global[local]);
}

void AutoMatcher::FlushPending() {
  if (pending_.empty()) return;
  // Members report in member-creation order; restore the contract order
  // (ordinal-ascending, slot-ascending within one ordinal) before
  // delivery. All buffered reports decided at the event just consumed,
  // so cross-event ordering stays nondecreasing.
  std::sort(pending_.begin(), pending_.end());
  if (sink_ != nullptr) {
    for (const auto& [ordinal, slot] : pending_) {
      sink_->OnSlotMatched(slot, ordinal);
    }
  }
  pending_.clear();
}

Status AutoMatcher::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  if (event.type == EventType::kStartDocument) {
    // The facade resets before startDocument; direct callers get the
    // guarantee here.
    XPS_RETURN_IF_ERROR(Reset());
  }
  for (Member& member : members_) {
    if (member.local_to_global.empty()) continue;
    XPS_RETURN_IF_ERROR(member.matcher->OnSymbolizedEvent(event, name_sym));
  }
  FlushPending();
  return Status::OK();
}

Result<std::vector<bool>> AutoMatcher::Verdicts() const {
  std::vector<bool> verdicts(routes_.size(), false);
  for (const Member& member : members_) {
    if (member.local_to_global.empty()) continue;
    auto member_verdicts = member.matcher->Verdicts();
    if (!member_verdicts.ok()) return member_verdicts.status();
    const std::vector<bool>& local = member_verdicts.value();
    for (size_t i = 0; i < member.local_to_global.size(); ++i) {
      if (i < local.size()) verdicts[member.local_to_global[i]] = local[i];
    }
  }
  return verdicts;
}

void AutoMatcher::EnableShortCircuit(bool on) {
  Matcher::EnableShortCircuit(on);
  for (Member& member : members_) member.matcher->EnableShortCircuit(on);
}

const MemoryStats& AutoMatcher::stats() const {
  stats_.Reset();
  for (const Member& member : members_) {
    stats_.Accumulate(member.matcher->stats());
  }
  return stats_;
}

}  // namespace xpstream
