#include "stream/lazy_dfa_filter.h"

#include <deque>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace xpstream {

Status LazyDfaFilter::CheckFragment(const Query& query) {
  if (!IsLinearPathQuery(query)) {
    return Status::Unsupported(
        "LazyDfaFilter supports linear path queries (no predicates) only");
  }
  for (const QueryNode* n = query.root()->successor(); n != nullptr;
       n = n->successor()) {
    if (n->axis() == Axis::kAttribute) {
      return Status::Unsupported("LazyDfaFilter does not support '@' steps");
    }
  }
  // A linear path's nodes are its root and one node per step.
  if (query.size() - 1 > 63) {
    return Status::Unsupported("LazyDfaFilter supports at most 63 steps");
  }
  return Status::OK();
}

Result<std::unique_ptr<LazyDfaFilter>> LazyDfaFilter::Create(
    const Query* query, SymbolTable* symbols) {
  // Gate the whole query before touching the shared table: a rejected
  // query must not leave its names interned engine-wide.
  XPS_RETURN_IF_ERROR(CheckFragment(*query));
  std::vector<const QueryNode*> chain;
  for (const QueryNode* n = query->root()->successor(); n != nullptr;
       n = n->successor()) {
    chain.push_back(n);
  }
  auto filter = std::unique_ptr<LazyDfaFilter>(new LazyDfaFilter());
  filter->BindSymbols(symbols);
  // Subscription-time resolution: intern each node test in the shared
  // table and assign the distinct ones a dense local alphabet 1..k
  // (repeated node tests share a local id, as they shared an entry in
  // the old private intern table). 0 stays OTHER for names outside the
  // query; the DFA's alphabet remains bounded by the query, not the
  // document.
  for (const QueryNode* n : chain) {
    const bool wildcard = n->ntest() == "*";
    int local = kOtherSymbol;
    if (!wildcard) {
      const Symbol sym = filter->symbols()->Intern(n->ntest());
      auto& map = filter->local_of_symbol_;
      if (sym >= map.size()) map.resize(sym + 1, kOtherSymbol);
      if (map[sym] == kOtherSymbol) map[sym] = ++filter->alphabet_size_;
      local = map[sym];
    }
    filter->steps_.push_back(Step{n->axis(), wildcard, local});
  }
  XPS_RETURN_IF_ERROR(filter->Reset());
  return filter;
}

Status LazyDfaFilter::Reset() {
  stack_.clear();
  matched_ = false;
  done_ = false;
  ordinal_ = 0;
  decided_at_ = kNoEventOrdinal;
  // The interned DFA persists across documents by design (a shared
  // transition table); only per-document state and stats reset.
  stats_.Reset();
  stats_.automaton_states().Set(NumStates());
  stats_.automaton_transitions().Set(NumTransitions());
  return Status::OK();
}

int LazyDfaFilter::InternState(uint64_t mask) {
  auto it = state_of_mask_.find(mask);
  if (it != state_of_mask_.end()) return it->second;
  int id = static_cast<int>(mask_of_state_.size());
  state_of_mask_[mask] = id;
  mask_of_state_.push_back(mask);
  stats_.automaton_states().Set(NumStates());
  return id;
}

uint64_t LazyDfaFilter::Descend(uint64_t mask, int symbol) const {
  uint64_t next = 0;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if ((mask & (1ULL << i)) == 0) continue;
    const Step& step = steps_[i];
    if (step.axis == Axis::kDescendant) next |= 1ULL << i;
    const bool passes =
        step.wildcard || (symbol != kOtherSymbol && symbol == step.local);
    if (passes) next |= 1ULL << (i + 1);
  }
  return next;
}

int LazyDfaFilter::Transition(int state, int symbol) {
  auto key = std::make_pair(state, symbol);
  auto it = transitions_.find(key);
  if (it != transitions_.end()) return it->second;
  uint64_t next_mask = Descend(MaskOf(state), symbol);
  int next = InternState(next_mask);
  transitions_[key] = next;
  stats_.automaton_transitions().Set(NumTransitions());
  return next;
}

Status LazyDfaFilter::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  switch (event.type) {
    case EventType::kStartDocument: {
      XPS_RETURN_IF_ERROR(Reset());
      stack_.push_back(InternState(1));
      break;
    }
    case EventType::kEndDocument:
      done_ = true;
      if (decided_at_ == kNoEventOrdinal) decided_at_ = ordinal_;
      break;
    case EventType::kStartElement: {
      if (stack_.empty()) return Status::NotWellFormed("no startDocument");
      int next = Transition(stack_.back(), LocalSymbol(name_sym));
      if ((MaskOf(next) & (1ULL << steps_.size())) != 0 && !matched_) {
        matched_ = true;
        decided_at_ = ordinal_;  // accepting-subset entry decides the verdict
      }
      stack_.push_back(next);
      break;
    }
    case EventType::kEndElement:
      if (stack_.size() <= 1) {
        return Status::NotWellFormed("unbalanced endElement");
      }
      stack_.pop_back();
      break;
    case EventType::kText:
    case EventType::kAttribute:
      break;
  }
  ++ordinal_;
  stats_.table_entries().Set(stack_.size());
  stats_.auxiliary_bytes().Set(stack_.size() * sizeof(int));
  return Status::OK();
}

Result<bool> LazyDfaFilter::Matched() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return matched_;
}

std::string LazyDfaFilter::SerializeState() const {
  // Protocol-relevant state: the stack of NFA-subset masks (ids are an
  // artifact of interning order, masks are canonical) plus the verdict.
  std::string out = matched_ ? "M1|" : "M0|";
  for (int s : stack_) {
    out += StringPrintf("%llx,", (unsigned long long)MaskOf(s));
  }
  return out;
}

void LazyDfaFilter::MaterializeFully() {
  std::deque<int> queue;
  queue.push_back(InternState(1));
  std::set<int> seen(queue.begin(), queue.end());
  while (!queue.empty()) {
    int state = queue.front();
    queue.pop_front();
    for (int symbol = 0; symbol <= alphabet_size_; ++symbol) {
      int next = Transition(state, symbol);
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
}

}  // namespace xpstream
