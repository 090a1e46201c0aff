#include "stream/nfa_filter.h"

#include "common/string_util.h"

namespace xpstream {

bool IsLinearPathQuery(const Query& query) {
  for (const QueryNode* node : query.AllNodes()) {
    if (node->predicate() != nullptr) return false;
    if (node->children().size() > 1) return false;
    if (node->children().size() == 1 && node->successor() == nullptr) {
      return false;  // a lone predicate child
    }
  }
  return true;
}

Status NfaFilter::CheckFragment(const Query& query) {
  if (!IsLinearPathQuery(query)) {
    return Status::Unsupported(
        "NfaFilter supports linear path queries (no predicates) only");
  }
  // A linear path's nodes are its root and one node per step.
  if (query.size() - 1 > 63) {
    return Status::Unsupported("NfaFilter supports at most 63 steps");
  }
  return Status::OK();
}

Result<std::unique_ptr<NfaFilter>> NfaFilter::Create(const Query* query,
                                                     SymbolTable* symbols) {
  // Gate the whole query before touching the shared table: a rejected
  // query must not leave its names interned engine-wide.
  XPS_RETURN_IF_ERROR(CheckFragment(*query));
  std::vector<const QueryNode*> chain;
  for (const QueryNode* n = query->root()->successor(); n != nullptr;
       n = n->successor()) {
    chain.push_back(n);
  }
  auto filter = std::unique_ptr<NfaFilter>(new NfaFilter({}));
  filter->BindSymbols(symbols);
  // Subscription-time resolution: each step's node test interns once,
  // so Passes() is an integer compare on the event path.
  filter->steps_.reserve(chain.size());
  for (const QueryNode* n : chain) {
    const bool wildcard = n->ntest() == "*";
    const Symbol sym =
        wildcard ? kNoSymbol : filter->symbols()->Intern(n->ntest());
    filter->steps_.push_back(Step{n->axis(), sym, wildcard});
  }
  XPS_RETURN_IF_ERROR(filter->Reset());
  return filter;
}

Status NfaFilter::Reset() {
  stack_.clear();
  matched_ = false;
  done_ = false;
  ordinal_ = 0;
  decided_at_ = kNoEventOrdinal;
  stats_.Reset();
  return Status::OK();
}

uint64_t NfaFilter::Descend(uint64_t active, Symbol name_sym) const {
  uint64_t next = 0;
  // Iterate set bits only: the active set is typically much sparser than
  // the 63-slot step window, and this runs once per start element.
  for (uint64_t rest = active & ((1ULL << steps_.size()) - 1); rest != 0;
       rest &= rest - 1) {
    const size_t i = static_cast<size_t>(__builtin_ctzll(rest));
    const Step& step = steps_[i];  // the (i+1)-st step, 0-based
    if (step.axis == Axis::kDescendant) {
      next |= 1ULL << i;  // '//' self-loop: skip this element
    }
    if (step.axis != Axis::kAttribute && step.Passes(name_sym)) {
      next |= 1ULL << (i + 1);
    }
  }
  return next;
}

Status NfaFilter::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  switch (event.type) {
    case EventType::kStartDocument:
      XPS_RETURN_IF_ERROR(Reset());
      stack_.push_back(1);  // state 0: before the first step
      break;
    case EventType::kEndDocument:
      done_ = true;
      if (decided_at_ == kNoEventOrdinal) decided_at_ = ordinal_;
      break;
    case EventType::kStartElement: {
      if (stack_.empty()) return Status::NotWellFormed("no startDocument");
      uint64_t next = Descend(stack_.back(), name_sym);
      if ((next & (1ULL << steps_.size())) != 0 && !matched_) {
        matched_ = true;
        decided_at_ = ordinal_;  // accepting-state entry decides the verdict
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
      break;
    case EventType::kAttribute: {
      if (stack_.empty()) return Status::NotWellFormed("no startDocument");
      // The element's own active set is one below the attribute step.
      // Only the last step can be an accepting attribute step, so a
      // single bit test replaces the full scan.
      if (!steps_.empty()) {
        const size_t last = steps_.size() - 1;
        const Step& step = steps_[last];
        if ((stack_.back() & (1ULL << last)) != 0 &&
            step.axis == Axis::kAttribute && step.Passes(name_sym) &&
            !matched_) {
          matched_ = true;
          decided_at_ = ordinal_;
        }
      }
      break;
    }
  }
  ++ordinal_;
  stats_.table_entries().Set(stack_.size());
  stats_.auxiliary_bytes().Set(stack_.size() * sizeof(uint64_t));
  return Status::OK();
}

Result<bool> NfaFilter::Matched() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return matched_;
}

std::string NfaFilter::SerializeState() const {
  std::string out = matched_ ? "M1|" : "M0|";
  for (uint64_t s : stack_) out += StringPrintf("%llx,", (unsigned long long)s);
  return out;
}

}  // namespace xpstream
