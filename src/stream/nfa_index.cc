#include "stream/nfa_index.h"

#include <algorithm>

#include "stream/engine_registry.h"
#include "stream/matcher.h"
#include "stream/nfa_filter.h"

namespace xpstream {

namespace {

/// Binary search of a symbol-sorted flat map; nullptr when absent.
template <typename EdgeT>
const EdgeT* FindEdge(const std::vector<EdgeT>& edges, Symbol sym) {
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const EdgeT& edge, Symbol s) { return edge.sym < s; });
  if (it == edges.end() || it->sym != sym) return nullptr;
  return &*it;
}

}  // namespace

NfaIndex::NfaIndex(SymbolTable* symbols) {
  symbols_.Bind(symbols);
  NewState();  // state 0 = root
}

int NfaIndex::NewState() {
  states_.push_back(State());
  return static_cast<int>(states_.size()) - 1;
}

int NfaIndex::ChildTarget(int from, const std::string& ntest) {
  if (ntest == "*") {
    // One shared wildcard edge per state keeps prefixes like a/*/b and
    // a/*/c sharing the middle state.
    if (states_[static_cast<size_t>(from)].wildcard_edges.empty()) {
      int target = NewState();
      states_[static_cast<size_t>(from)].wildcard_edges.push_back(target);
    }
    return states_[static_cast<size_t>(from)].wildcard_edges.front();
  }
  // Subscription-time interning: the node test's symbol keys the edge;
  // document names compare against it as integers.
  const Symbol sym = symbols_.get()->Intern(ntest);
  std::vector<ChildEdge>& edges =
      states_[static_cast<size_t>(from)].child_edges;
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const ChildEdge& edge, Symbol s) { return edge.sym < s; });
  if (it != edges.end() && it->sym == sym) return it->target;
  const size_t pos = static_cast<size_t>(it - edges.begin());
  int target = NewState();
  // NewState may reallocate states_; re-take the edge vector.
  std::vector<ChildEdge>& fresh =
      states_[static_cast<size_t>(from)].child_edges;
  fresh.insert(fresh.begin() + static_cast<ptrdiff_t>(pos),
               ChildEdge{sym, target});
  return target;
}

int NfaIndex::DdState(int from) {
  if (states_[static_cast<size_t>(from)].dd_state < 0) {
    int dd = NewState();
    states_[static_cast<size_t>(dd)].self_loop = true;
    states_[static_cast<size_t>(from)].dd_state = dd;
  }
  return states_[static_cast<size_t>(from)].dd_state;
}

Status NfaIndex::CheckFragment(const Query& query) {
  if (!IsLinearPathQuery(query)) {
    return Status::Unsupported(
        "NfaIndex supports linear path queries (no predicates) only");
  }
  if (query.root()->successor() == nullptr) {
    return Status::Unsupported("query has no steps");
  }
  return Status::OK();
}

Status NfaIndex::AddQuery(size_t id, const Query& query) {
  XPS_RETURN_IF_ERROR(CheckFragment(query));
  int current = 0;
  for (const QueryNode* step = query.root()->successor(); step != nullptr;
       step = step->successor()) {
    switch (step->axis()) {
      case Axis::kChild:
        current = ChildTarget(current, step->ntest());
        break;
      case Axis::kDescendant:
        current = ChildTarget(DdState(current), step->ntest());
        break;
      case Axis::kAttribute: {
        if (step->successor() != nullptr) {
          // Attribute nodes have no children: further steps can never
          // match, so the query is unsatisfiable. Register it with no
          // accepting state.
          max_id_ = std::max(max_id_, id);
          return Status::OK();
        }
        const Symbol sym = symbols_.get()->Intern(step->ntest());
        std::vector<AttrAccept>& accepts =
            states_[static_cast<size_t>(current)].attribute_accepts;
        auto it = std::lower_bound(
            accepts.begin(), accepts.end(), sym,
            [](const AttrAccept& a, Symbol s) { return a.sym < s; });
        if (it == accepts.end() || it->sym != sym) {
          it = accepts.insert(it, AttrAccept{sym, {}});
        }
        it->ids.push_back(id);
        max_id_ = std::max(max_id_, id);
        return Status::OK();
      }
    }
  }
  states_[static_cast<size_t>(current)].accepts.push_back(id);
  max_id_ = std::max(max_id_, id);
  return Status::OK();
}

void NfaIndex::RemoveQuery(size_t id) {
  auto erase_id = [id](std::vector<size_t>* ids) {
    ids->erase(std::remove(ids->begin(), ids->end(), id), ids->end());
  };
  for (State& state : states_) {
    erase_id(&state.accepts);
    for (AttrAccept& accept : state.attribute_accepts) {
      erase_id(&accept.ids);
    }
  }
}

Status NfaIndexRun::Reset() {
  depth_ = 0;
  active_entries_ = 0;
  done_ = false;
  ordinal_ = 0;
  verdicts_.assign(index_->max_id_ + 1, false);
  newly_.clear();
  // Queries may be added between documents; re-size the membership
  // stamps to the current automaton (fresh stamps are 0 = never seen).
  member_epoch_.resize(index_->states_.size(), 0);
  stats_.Reset();
  return Status::OK();
}

void NfaIndexRun::BeginSet() {
  if (++epoch_ == 0) {  // wrap: every stale stamp must read as absent
    std::fill(member_epoch_.begin(), member_epoch_.end(), 0);
    epoch_ = 1;
  }
}

void NfaIndexRun::AddClosed(int state, std::vector<int>* set) {
  auto add = [&](int s) {
    uint32_t& stamp = member_epoch_[static_cast<size_t>(s)];
    if (stamp == epoch_) return;  // already in the set being filled
    stamp = epoch_;
    set->push_back(s);
  };
  add(state);
  int dd = index_->states_[static_cast<size_t>(state)].dd_state;
  // dd companions can themselves carry dd states only via their
  // outgoing edges, which are handled on transition; no deeper ε here.
  if (dd >= 0) add(dd);
}

Status NfaIndexRun::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  const std::vector<NfaIndex::State>& states = index_->states_;
  // Accepting-state entry decides (and reports) the query's verdict.
  auto mark = [&](size_t id) {
    if (verdicts_[id]) return;
    verdicts_[id] = true;
    if (sink_ != nullptr) newly_.push_back(id);
  };
  auto accept = [&](int state) {
    for (size_t id : states[static_cast<size_t>(state)].accepts) {
      mark(id);
    }
  };
  // Opens one stack level, recycling the storage of a previously popped
  // level when available.
  auto open_level = [&]() -> std::vector<int>& {
    if (depth_ == stack_.size()) stack_.emplace_back();
    std::vector<int>& level = stack_[depth_++];
    level.clear();
    return level;
  };

  switch (event.type) {
    case EventType::kStartDocument: {
      XPS_RETURN_IF_ERROR(Reset());
      std::vector<int>& initial = open_level();
      BeginSet();
      AddClosed(0, &initial);
      active_entries_ = initial.size();
      break;
    }
    case EventType::kEndDocument:
      done_ = true;
      stats_.automaton_states().Set(states.size());
      break;
    case EventType::kStartElement: {
      if (depth_ == 0) {
        return Status::NotWellFormed("element before startDocument");
      }
      std::vector<int>& next = open_level();
      BeginSet();
      const std::vector<int>& current = stack_[depth_ - 2];
      for (int s : current) {
        const NfaIndex::State& state = states[static_cast<size_t>(s)];
        const NfaIndex::ChildEdge* edge =
            FindEdge(state.child_edges, name_sym);
        if (edge != nullptr) {
          accept(edge->target);
          AddClosed(edge->target, &next);
        }
        for (int t : state.wildcard_edges) {
          accept(t);
          AddClosed(t, &next);
        }
        if (state.self_loop) {
          AddClosed(s, &next);
        }
      }
      active_entries_ += next.size();
      stats_.table_entries().Set(active_entries_);
      break;
    }
    case EventType::kEndElement:
      if (depth_ <= 1) {
        return Status::NotWellFormed("unbalanced endElement");
      }
      active_entries_ -= stack_[depth_ - 1].size();
      --depth_;
      break;
    case EventType::kText:
      break;
    case EventType::kAttribute: {
      if (depth_ == 0) {
        return Status::NotWellFormed("attribute before startDocument");
      }
      for (int s : stack_[depth_ - 1]) {
        const NfaIndex::State& state = states[static_cast<size_t>(s)];
        const NfaIndex::AttrAccept* accepts =
            FindEdge(state.attribute_accepts, name_sym);
        if (accepts != nullptr) {
          for (size_t id : accepts->ids) mark(id);
        }
      }
      break;
    }
  }
  if (!newly_.empty()) {
    // Ids may be touched in automaton order within one event; the sink
    // contract is ascending slot order per ordinal.
    std::sort(newly_.begin(), newly_.end());
    for (size_t id : newly_) sink_->OnSlotMatched(id, ordinal_);
    newly_.clear();
  }
  ++ordinal_;
  return Status::OK();
}

Result<std::vector<bool>> NfaIndexRun::Verdicts() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return verdicts_;
}

namespace {

/// The shared-automaton dissemination engine: all subscriptions run in
/// one NfaIndex, slots map 1:1 onto index query ids.
class NfaIndexMatcher : public Matcher {
 public:
  /// The index resolves against `symbols` (owning a private table when
  /// nullptr); the matcher binds the same table, so the symbol it
  /// resolves per event is the one the index's edges are keyed by.
  explicit NfaIndexMatcher(SymbolTable* symbols)
      : index_(symbols), run_(&index_) {
    BindSymbols(index_.symbols());
  }

  std::string name() const override { return "nfa_index"; }

  Status Subscribe(size_t slot, const Query* query) override {
    if (slot != subscriptions_) {
      return Status::InvalidArgument("subscription slots must be dense");
    }
    XPS_RETURN_IF_ERROR(index_.AddQuery(slot, *query));
    ++subscriptions_;
    tombstoned_.push_back(0);
    return Status::OK();
  }

  Status Unsubscribe(size_t slot) override {
    if (slot >= subscriptions_ || tombstoned_[slot] != 0) {
      return Status::InvalidArgument("unknown or already tombstoned slot");
    }
    // One accept-list sweep; the shared automaton is never rebuilt and
    // the run's recycled storage stays valid.
    index_.RemoveQuery(slot);
    tombstoned_[slot] = 1;
    return Status::OK();
  }

  size_t NumSubscriptions() const override { return subscriptions_; }
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override {
    return run_.OnSymbolizedEvent(event, name_sym);
  }

  void SetSink(MatchSink* sink) override {
    sink_ = sink;
    run_.SetSink(sink);  // slots map 1:1 onto index query ids
  }

  const MemoryStats& stats() const override { return run_.stats(); }

 private:
  NfaIndex index_;
  NfaIndexRun run_;
  size_t subscriptions_ = 0;
  std::vector<uint8_t> tombstoned_;  ///< per-slot tombstone flags
};

}  // namespace

std::unique_ptr<Matcher> NewNfaIndexMatcher(SymbolTable* symbols) {
  return std::make_unique<NfaIndexMatcher>(symbols);
}

}  // namespace xpstream
