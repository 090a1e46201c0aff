#include "stream/frontier_filter.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/fragment.h"
#include "common/string_util.h"
#include "stream/engine_registry.h"

namespace xpstream {

Result<std::unique_ptr<FrontierFilter>> FrontierFilter::Create(
    const Query* query, SymbolTable* symbols) {
  std::unique_ptr<FrontierFilter> filter(new FrontierFilter(query));
  filter->nodes_.assign(query->size(), NodeInfo{});
  filter->tests_.assign(query->size(), {});
  XPS_RETURN_IF_ERROR(filter->CompileMember(*query));
  filter->BindSymbols(symbols);
  // Subscription-time resolution: one symbol per query node, so
  // candidate selection on the event path never compares strings.
  for (const QueryNode* node : query->AllNodes()) {
    if (node->is_root()) continue;
    NodeInfo& info = filter->nodes_[node->id()];
    info.descendant = node->axis() == Axis::kDescendant;
    if (node->is_wildcard()) {
      info.wild = true;
    } else {
      info.sym = filter->symbols()->Intern(node->ntest());
    }
  }
  XPS_RETURN_IF_ERROR(filter->Reset());
  return filter;
}

std::string FrontierFilter::ShapeKey(const Query& query) {
  // Names never contain '/', '@', '(' or ')', so the key is unambiguous.
  std::string key;
  auto rec = [&](auto&& self, const QueryNode* node) -> void {
    if (node->is_root()) {
      key += '$';
    } else {
      switch (node->axis()) {
        case Axis::kChild:
          key += '/';
          break;
        case Axis::kDescendant:
          key += "//";
          break;
        case Axis::kAttribute:
          key += '@';
          break;
      }
      key += node->ntest();
    }
    if (node->children().empty()) return;
    key += '(';
    for (const auto& child : node->children()) self(self, child.get());
    key += ')';
  };
  rec(rec, query.root());
  return key;
}

Status FrontierFilter::CheckFragment(const Query& query) {
  std::string reason;
  if (!IsConjunctive(query, &reason) || !IsUnivariate(query, &reason)) {
    return Status::Unsupported("FrontierFilter requires a univariate "
                               "conjunctive query: " +
                               reason);
  }
  if (!IsLeafOnlyValueRestricted(query, &reason)) {
    return Status::Unsupported(
        "FrontierFilter requires a leaf-only-value-restricted query: " +
        reason);
  }
  return Status::OK();
}

Status FrontierFilter::CompileMember(const Query& query) {
  XPS_RETURN_IF_ERROR(CheckFragment(query));
  auto truths = TruthSetMap::Build(query);
  if (!truths.ok()) return truths.status();
  // Equal shape keys make the pre-order node ids line up.
  const MemberMask bit = MemberMask{1} << num_members();
  for (const QueryNode* node : query.AllNodes()) {
    ValueTest test = ValueTest::Compile(truths->Get(node));
    if (!node->is_root() && node->IsLeaf() && test.is_universal()) {
      nodes_[node->id()].universal_leaf |= bit;
    }
    tests_[node->id()].push_back(std::move(test));
  }
  all_ |= bit;
  live_ |= bit;
  decided_at_.push_back(kNoEventOrdinal);
  return Status::OK();
}

Result<size_t> FrontierFilter::AddMember(const Query* query) {
  if (num_members() == kMaxMembers) {
    return Status::InvalidArgument("the walk already has kMaxMembers members");
  }
  if (collecting_ || literal_mode_) {
    return Status::Unsupported(
        "output collection and literal mode run on one-member walks only");
  }
  if (ShapeKey(*query) != ShapeKey(*query_)) {
    return Status::InvalidArgument("member query differs in shape: " +
                                   query->ToString());
  }
  XPS_RETURN_IF_ERROR(CompileMember(*query));
  return num_members() - 1;
}

Status FrontierFilter::SetLiteralPseudocodeMode(bool literal) {
  if (num_members() > 1) {
    return Status::Unsupported("literal mode runs on one-member walks only");
  }
  literal_mode_ = literal;
  return Status::OK();
}

Status FrontierFilter::Reset() {
  frontier_.clear();
  descendants_.clear();
  captures_.clear();
  buffer_.clear();
  current_level_ = 0;
  done_ = false;
  matched_ = 0;
  failed_ = false;
  ordinal_ = 0;
  decided_at_.assign(num_members(), kNoEventOrdinal);
  decided_ = 0;
  skip_level_ = 0;
  stats_.Reset();
  trace_.clear();
  scopes_.clear();
  root_pending_.clear();
  outputs_.clear();
  suspended_matched_.clear();
  return Status::OK();
}

Status FrontierFilter::EnableOutputCollection() {
  if (num_members() > 1) {
    return Status::Unsupported(
        "output collection runs on one-member walks only");
  }
  chain_.clear();
  for (const QueryNode* n = query_->root()->successor(); n != nullptr;
       n = n->successor()) {
    if (n->axis() != Axis::kChild) {
      return Status::Unsupported(
          "output collection requires a child-axis succession chain "
          "(descendant/attribute output steps need the general buffering "
          "of [5])");
    }
    chain_.push_back(n);
  }
  if (chain_.empty()) {
    return Status::Unsupported("query has no output step");
  }
  for (const QueryNode* n : chain_) nodes_[n->id()].on_chain = true;
  aggregated_m_.assign(query_->size(), -1);
  collecting_ = true;
  return Status::OK();
}

size_t FrontierFilter::LevelBegin(size_t level) const {
  size_t i = frontier_.size();
  while (i > 0 && frontier_[i - 1].level >= level) --i;
  return i;
}

FrontierFilter::Record* FrontierFilter::FindRecord(const QueryNode* node,
                                                   size_t level) {
  for (size_t i = frontier_.size(); i-- > 0 && frontier_[i].level >= level;) {
    if (frontier_[i].level == level && frontier_[i].node == node) {
      return &frontier_[i];
    }
  }
  return nullptr;
}

Status FrontierFilter::InsertRecord(const QueryNode* node, size_t level,
                                    MemberMask matched) {
  Record* existing = FindRecord(node, level);
  if (existing != nullptr) {
    existing->matched |= matched;
    return Status::OK();
  }
  if (!frontier_.empty() && frontier_.back().level > level) {
    return Status::Internal("frontier table out of level order");
  }
  if (nodes_[node->id()].descendant) descendants_.push_back(frontier_.size());
  frontier_.push_back(Record{node, level, matched, 0});
  return Status::OK();
}

FrontierFilter::MemberMask FrontierFilter::TestValue(
    const QueryNode* node, MemberMask open, std::string_view value) const {
  MemberMask hits = open & nodes_[node->id()].universal_leaf;
  const std::vector<ValueTest>& tests = tests_[node->id()];
  CapturedValue captured(value);  // parsed at most once for all members
  for (MemberMask rest = open & ~hits; rest != 0; rest &= rest - 1) {
    const int member = __builtin_ctzll(rest);
    if (tests[static_cast<size_t>(member)].Accepts(&captured)) {
      hits |= MemberMask{1} << member;
    }
  }
  return hits;
}

void FrontierFilter::UpdateGauges() {
  stats_.table_entries().Set(frontier_.size());
  stats_.buffered_bytes().Set(buffer_.size());
  stats_.auxiliary_bytes().Set(captures_.size() * sizeof(Capture) +
                               sizeof(current_level_));
}

void FrontierFilter::Snapshot(const Event& event) {
  std::string line = event.ToString() + " level=" +
                     StringPrintf("%zu", current_level_) + " frontier=[";
  for (size_t i = 0; i < frontier_.size(); ++i) {
    const Record& r = frontier_[i];
    if (i > 0) line += " ";
    line += StringPrintf("(%zu,%s,%llu)", r.level,
                         r.node->is_root() ? "$" : r.node->ntest().c_str(),
                         static_cast<unsigned long long>(r.matched));
  }
  line += "]";
  trace_.push_back(std::move(line));
}

Status FrontierFilter::OnSymbolizedEvent(const Event& event,
                                         Symbol name_sym) {
  // startDocument passes: it resets the filter, a failure included.
  if (failed_ && event.type != EventType::kStartDocument) {
    return Status::Internal("filter already failed");
  }
  if (skip_level_ != 0 && SkipEvent(event.type)) return Status::OK();
  Status status;
  switch (event.type) {
    case EventType::kStartDocument:
      status = HandleStartDocument();
      break;
    case EventType::kEndDocument:
      status = HandleEndDocument();
      break;
    case EventType::kStartElement:
      status = HandleStartElement(name_sym);
      break;
    case EventType::kEndElement:
      status = HandleEndElement();
      break;
    case EventType::kText:
      status = HandleText(event.text);
      break;
    case EventType::kAttribute:
      status = HandleAttribute(name_sym, event.text);
      break;
  }
  if (!status.ok()) {
    failed_ = true;
    return status;
  }
  // Earliest-decision tracking: a member's root record commits at the
  // event that establishes its last requirement; endDocument decides
  // whatever is still open (and everything in literal mode).
  if (decided_ != all_) {
    const MemberMask decided = event.type == EventType::kEndDocument
                                   ? all_
                                   : committed_members();
    for (MemberMask fresh = decided & ~decided_; fresh != 0;
         fresh &= fresh - 1) {
      decided_at_[static_cast<size_t>(__builtin_ctzll(fresh))] = ordinal_;
    }
    decided_ |= decided;
  }
  ++ordinal_;
  UpdateGauges();
  if (trace_enabled_) Snapshot(event);
  return Status::OK();
}

bool FrontierFilter::SkipEvent(EventType type) {
  switch (type) {
    case EventType::kStartElement:
      ++current_level_;
      break;
    case EventType::kEndElement:
      if (--current_level_ == skip_level_) skip_level_ = 0;
      break;
    case EventType::kText:
    case EventType::kAttribute:
      break;
    default:
      // A document boundary inside an element is malformed; the full
      // walk reports it.
      skip_level_ = 0;
      return false;
  }
  ++ordinal_;
  return true;
}

bool FrontierFilter::HasOpenDescendant() const {
  return std::any_of(descendants_.begin(), descendants_.end(),
                     [this](size_t i) {
                       return (frontier_[i].matched & live_) != live_;
                     });
}

FrontierFilter::MemberMask FrontierFilter::SuspendedMatched(
    const QueryNode* node, size_t level) const {
  for (const Suspended& entry : suspended_matched_) {
    if (entry.node == node && entry.level == level) return entry.members;
  }
  return 0;
}

FrontierFilter::MemberMask FrontierFilter::SuspendMatched(
    const QueryNode* node, size_t level, MemberMask members) {
  for (Suspended& entry : suspended_matched_) {
    if (entry.node != node || entry.level != level) continue;
    const MemberMask fresh = members & ~entry.members;
    entry.members |= fresh;
    return fresh;
  }
  if (members != 0) suspended_matched_.push_back({node, level, members});
  return members;
}

FrontierFilter::MemberMask FrontierFilter::Established(const QueryNode* node,
                                                       size_t level) {
  const Record* r = FindRecord(node, level);
  if (r != nullptr) return r->matched | r->committed;
  return SuspendedMatched(node, level);
}

void FrontierFilter::PropagateCommit(const QueryNode* node, size_t level,
                                     MemberMask members) {
  if (literal_mode_) return;
  // Once a member's root has committed, no further commitment can
  // matter for it.
  members &= ~committed_members();
  const QueryNode* parent = node->parent();
  // The children of `parent` at `level` were expanded by one candidate,
  // the open element at level - 1; its close aggregates exactly them.
  for (const auto& sibling : parent->children()) {
    if (members == 0) return;
    members &= Established(sibling.get(), level);
  }
  if (members == 0) return;
  if (parent->is_root()) {
    frontier_[0].committed |= members;  // the root record, inserted first
  } else if (parent->axis() == Axis::kDescendant) {
    // The contexts the aggregation at the candidate's close will set:
    // records anchored strictly above it, which the level order puts
    // before the first record at `level`. Recursion adds no records, so
    // the reference and the index stay valid.
    for (size_t i : descendants_) {
      Record& r = frontier_[i];
      if (r.level >= level) break;
      if (r.node != parent) continue;
      const MemberMask fresh = members & ~(r.matched | r.committed);
      if (fresh == 0) continue;
      r.committed |= fresh;
      PropagateCommit(parent, r.level, fresh);
    }
  } else {
    // A child-axis parent is suspended while its candidate is open; the
    // aggregation reinserts it matched from suspended_matched_.
    const MemberMask fresh = SuspendMatched(parent, level - 1, members);
    if (fresh != 0) PropagateCommit(parent, level - 1, fresh);
  }
}

Status FrontierFilter::HandleStartDocument() {
  XPS_RETURN_IF_ERROR(Reset());
  // The document root is the unique candidate match for the query root:
  // insert the root record and expand its children right away.
  XPS_RETURN_IF_ERROR(InsertRecord(query_->root(), 0, 0));
  for (const auto& child : query_->root()->children()) {
    XPS_RETURN_IF_ERROR(InsertRecord(child.get(), 1, 0));
  }
  current_level_ = 1;
  return Status::OK();
}

Status FrontierFilter::HandleStartElement(Symbol name_sym) {
  // Select candidate records (Fig. 20 startElement lines 1–4) in table
  // order (implementation note 7): the descendant-axis records shallower
  // than current_level_, then the trailing run at current_level_.
  const size_t run = LevelBegin(current_level_);
  std::vector<size_t>& candidates = scratch_candidates_;
  candidates.clear();
  for (size_t i : descendants_) {
    if (i >= run) break;
    if (IsCandidate(frontier_[i], name_sym)) candidates.push_back(i);
  }
  for (size_t i = run; i < frontier_.size(); ++i) {
    if (IsCandidate(frontier_[i], name_sym)) candidates.push_back(i);
  }

  std::vector<size_t>& to_delete = scratch_delete_;
  to_delete.clear();
  for (size_t idx : candidates) {
    // Copy: frontier_ may grow below and invalidate references.
    Record record = frontier_[idx];
    if (record.node->IsLeaf()) {
      // Start buffering this element's string value (lines 6–8).
      captures_.push_back(Capture{record.node, record.level, current_level_,
                                  buffer_.size()});
    } else {
      // Expand children (lines 12–15); child-axis parents leave the
      // frontier until their element closes (lines 10–11), remembering
      // the members they already matched for across the reinsertion.
      if (record.node->axis() == Axis::kChild) {
        to_delete.push_back(idx);
        SuspendMatched(record.node, record.level, record.matched);
      }
      for (const auto& child : record.node->children()) {
        XPS_RETURN_IF_ERROR(InsertRecord(child.get(), current_level_ + 1, 0));
      }
    }
  }
  // Appends leave indices in place. Erasing from the back keeps the
  // lower ones valid, and each erase moves the indexed records after it.
  for (auto it = to_delete.rbegin(); it != to_delete.rend(); ++it) {
    frontier_.erase(frontier_.begin() + static_cast<ptrdiff_t>(*it));
    for (auto d = descendants_.rbegin();
         d != descendants_.rend() && *d > *it; ++d) {
      --*d;
    }
  }
  // Earliest commitment (implementation note 5): a leaf whose truth set
  // is universal is decided by its element's start. Its capture stays
  // open, so buffering and the matched bit set at its close are
  // unchanged. This element's captures are the innermost ones.
  for (auto it = captures_.rbegin();
       it != captures_.rend() && it->elem_level == current_level_; ++it) {
    const MemberMask universal = nodes_[it->node->id()].universal_leaf & live_;
    if (universal == 0) continue;
    Record* r = FindRecord(it->node, it->record_level);
    const MemberMask fresh = universal & ~(r->matched | r->committed);
    if (fresh == 0) continue;
    r->committed |= fresh;
    PropagateCommit(it->node, it->record_level, fresh);
  }

  // Output collection: is this element the next candidate on the
  // succession chain? (Chain steps are child-axis, so the candidate for
  // chain position i lives exactly at level i, directly under the open
  // candidate of position i-1.)
  if (collecting_) {
    size_t open = scopes_.size();
    if (open < chain_.size() && current_level_ == open + 1 &&
        NamePasses(chain_[open], name_sym)) {
      OutputScope scope;
      scope.chain_index = open + 1;
      scope.elem_level = current_level_;
      scope.value_start =
          scope.chain_index == chain_.size() ? buffer_.size() : 0;
      scopes_.push_back(std::move(scope));
    }
  }

  // Irrelevant-subtree skipping (implementation note 4): nothing
  // below a non-candidate element can change the frontier when no
  // descendant-axis record is still unmatched (child-axis records sit
  // at shallower levels, matched records are never candidates) and no
  // capture is open (text is only buffered for captures). Collection
  // and tracing observe every event, so they walk in full.
  if (candidates.empty() && captures_.empty() && !collecting_ &&
      !trace_enabled_ && !HasOpenDescendant()) {
    skip_level_ = current_level_;
  }
  ++current_level_;
  return Status::OK();
}

Status FrontierFilter::HandleAttribute(Symbol name_sym,
                                       std::string_view value) {
  // Attributes are leaf children of the current element; they arrive at
  // the level element children would occupy, the table's trailing run.
  // Internal attribute-axis query nodes can never match (attributes have
  // no children).
  for (size_t i = LevelBegin(current_level_); i < frontier_.size(); ++i) {
    Record& r = frontier_[i];
    const MemberMask open = live_ & ~r.matched;
    if (open == 0 || r.node->is_root()) continue;
    if (r.node->axis() != Axis::kAttribute) continue;
    if (!NamePasses(r.node, name_sym)) continue;
    if (!r.node->IsLeaf()) continue;
    const MemberMask hits = TestValue(r.node, open, value);
    if (hits == 0) continue;
    r.matched |= hits;
    // Adds no records: r stays valid.
    const MemberMask fresh = hits & ~r.committed;
    if (fresh != 0) PropagateCommit(r.node, r.level, fresh);
  }
  return Status::OK();
}

bool FrontierFilter::OutValueOpen() const {
  return collecting_ && !scopes_.empty() &&
         scopes_.back().chain_index == chain_.size();
}

Status FrontierFilter::HandleText(std::string_view text) {
  if (!captures_.empty() || OutValueOpen()) {
    buffer_ += text;  // Fig. 20 text(): append only when referenced
  }
  return Status::OK();
}

Status FrontierFilter::HandleEndElement() {
  if (current_level_ == 0) {
    return Status::NotWellFormed("unbalanced endElement");
  }
  --current_level_;

  // Resolve leaf captures opened by this element (Fig. 21 lines 2–10).
  while (!captures_.empty() && captures_.back().elem_level == current_level_) {
    const Capture capture = captures_.back();
    captures_.pop_back();
    // The capture resolves in the context of exactly the record it was
    // opened for. (Every live record that had this element as a
    // candidate opened its own capture, so per-record resolution is
    // complete; setting *all* records of the node would contaminate
    // records created during this very element, whose candidates must
    // be strict descendants.) Only live members still unmatched there
    // are tested.
    Record* r = FindRecord(capture.node, capture.record_level);
    if (r == nullptr) continue;
    const MemberMask open = live_ & ~r->matched;
    if (open == 0) continue;
    const MemberMask hits = TestValue(
        capture.node, open, std::string_view(buffer_).substr(capture.start));
    if (hits == 0) continue;
    r->matched |= hits;
    const MemberMask fresh = hits & ~r->committed;
    if (fresh != 0) PropagateCommit(capture.node, capture.record_level, fresh);
  }

  XPS_RETURN_IF_ERROR(AggregateChildren());
  if (collecting_) CloseOutputScopes();
  if (captures_.empty() && !OutValueOpen()) {
    buffer_.clear();
  }
  return Status::OK();
}

void FrontierFilter::CloseOutputScopes() {
  while (!scopes_.empty() && scopes_.back().elem_level == current_level_) {
    OutputScope scope = std::move(scopes_.back());
    scopes_.pop_back();
    const QueryNode* node = chain_[scope.chain_index - 1];
    std::vector<std::string>* sink =
        scopes_.empty() ? &root_pending_ : &scopes_.back().pending;
    if (scope.chain_index == chain_.size()) {
      // OUT(Q) candidate: it is selected iff its own predicate children
      // were matched (leaves have no predicate, hence always real).
      bool real = node->IsLeaf()
                      ? TestValue(node, MemberMask{1},
                                  std::string_view(buffer_).substr(
                                      scope.value_start)) != 0
                      : aggregated_m_[node->id()] == 1;
      if (real) {
        sink->push_back(buffer_.substr(scope.value_start));
      }
    } else {
      // Inner chain step: its predicate verdict (the aggregation m bit)
      // decides whether the outputs gathered below survive.
      bool confirmed = aggregated_m_[node->id()] == 1;
      if (confirmed) {
        for (std::string& value : scope.pending) {
          sink->push_back(std::move(value));
        }
      }
    }
  }
}

Status FrontierFilter::AggregateChildren() {
  // Records one level below current_level_ are exactly the children
  // expanded when the closing element started (Fig. 21 lines 11–29),
  // and the level order makes them the table's suffix.
  if (collecting_) {
    std::fill(aggregated_m_.begin(), aggregated_m_.end(), int8_t{-1});
  }
  const size_t children = LevelBegin(current_level_ + 1);
  std::vector<std::pair<const QueryNode*, MemberMask>>& parents =
      scratch_parents_;
  parents.clear();
  for (size_t i = children; i < frontier_.size(); ++i) {
    const QueryNode* parent = frontier_[i].node->parent();
    if (std::any_of(parents.begin(), parents.end(),
                    [parent](const auto& p) { return p.first == parent; })) {
      continue;
    }
    // m := the members for which all children of `parent` found a real
    // match (lines 15–20). It starts from every member, removed ones
    // included, so a one-member walk computes the pseudo-code's bit.
    MemberMask m = all_;
    for (const auto& child : parent->children()) {
      const Record* r = FindRecord(child.get(), current_level_ + 1);
      m &= r == nullptr ? 0 : r->matched;
      if (m == 0) break;
    }
    parents.emplace_back(parent, m);
  }
  // Delete the child records (line 19), all at once: no parent update
  // below reads or writes the suffix — the root sits at level 0, a
  // descendant-axis parent at current_level_ or shallower, and a
  // child-axis parent is reinserted at current_level_.
  frontier_.resize(children);
  while (!descendants_.empty() && descendants_.back() >= children) {
    descendants_.pop_back();
  }

  for (const auto& [parent, m] : parents) {
    if (collecting_) aggregated_m_[parent->id()] = (m & 1) != 0 ? 1 : 0;
    // Update the parent (lines 21–28). The literal pseudo-code assigns
    // `matched := m`; the default mode OR-accumulates, which is the
    // correctness fix for recursive documents (DESIGN.md §5).
    if (parent->is_root()) {
      Record* root = FindRecord(parent, 0);
      if (root != nullptr) {
        root->matched = literal_mode_ ? m : (root->matched | m);
      }
    } else if (parent->axis() == Axis::kDescendant) {
      // The closing element is a real match for `parent` in every
      // context whose anchor is a *strict* ancestor — i.e. every record
      // left, all at level <= current_level_. The deleted records at
      // current_level_+1 were created by this very element and must
      // not be set (their candidates are strict descendants of it).
      for (size_t i : descendants_) {
        Record& r = frontier_[i];
        if (r.node == parent) r.matched = literal_mode_ ? m : (r.matched | m);
      }
    } else {
      MemberMask prior = 0;
      auto it = std::find_if(suspended_matched_.begin(),
                             suspended_matched_.end(),
                             [&](const Suspended& entry) {
                               return entry.node == parent &&
                                      entry.level == current_level_;
                             });
      if (it != suspended_matched_.end()) {
        prior = it->members;
        *it = suspended_matched_.back();
        suspended_matched_.pop_back();
      }
      XPS_RETURN_IF_ERROR(InsertRecord(parent, current_level_,
                                       literal_mode_ ? m : (m | prior)));
    }
  }
  return Status::OK();
}

Status FrontierFilter::HandleEndDocument() {
  if (current_level_ != 1) {
    return Status::NotWellFormed("endDocument with open elements");
  }
  current_level_ = 0;
  XPS_RETURN_IF_ERROR(AggregateChildren());
  Record* root = FindRecord(query_->root(), 0);
  matched_ = root != nullptr ? root->matched : 0;
  if (collecting_ && (matched_ & 1) != 0) {
    outputs_ = std::move(root_pending_);
  }
  done_ = true;
  return Status::OK();
}

Result<FrontierFilter::MemberMask> FrontierFilter::MatchedMembers() const {
  if (failed_) return Status::Internal("filter failed");
  if (!done_) return Status::InvalidArgument("document not complete");
  return matched_;
}

Result<bool> FrontierFilter::Matched() const {
  auto matched = MatchedMembers();
  if (!matched.ok()) return matched.status();
  return (*matched & 1) != 0;
}

std::string FrontierFilter::SerializeState() const {
  // Canonical: records sorted by (query node id, level).
  std::vector<Record> sorted = frontier_;
  std::sort(sorted.begin(), sorted.end(), [](const Record& a,
                                             const Record& b) {
    if (a.node->id() != b.node->id()) return a.node->id() < b.node->id();
    return a.level < b.level;
  });
  std::string out = StringPrintf("L%zu|", current_level_);
  for (const Record& r : sorted) {
    out += StringPrintf("(%zu,%zu,%llu)", r.node->id(), r.level,
                        static_cast<unsigned long long>(r.matched));
  }
  out += "|C";
  for (const Capture& c : captures_) {
    out += StringPrintf("(%zu,%zu,%zu,%zu)", c.node->id(), c.record_level,
                        c.elem_level, c.start);
  }
  out += "|B" + buffer_;
  out += done_ ? StringPrintf("|M%llu", static_cast<unsigned long long>(
                                           matched_))
               : "|-";
  return out;
}

namespace {

/// The frontier engine: one FrontierFilter walk per query shape, each
/// serving up to kMaxMembers subscriptions (implementation note 6).
/// Its sink reports equal those of a bank of one-member filters.
class FrontierMatcher : public Matcher {
 public:
  explicit FrontierMatcher(SymbolTable* symbols) { BindSymbols(symbols); }

  std::string name() const override { return "frontier"; }
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return slots_.size(); }
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  const MemoryStats& stats() const override;

 private:
  using MemberMask = FrontierFilter::MemberMask;

  struct Walk {
    std::unique_ptr<FrontierFilter> filter;
    std::vector<size_t> slots;  ///< member -> slot
    /// Members reported as matched in the current document.
    MemberMask reported = 0;
  };

  /// Where a slot runs.
  struct SlotRef {
    size_t walk;
    size_t member;
  };

  std::vector<Walk> walks_;
  std::vector<SlotRef> slots_;
  /// Shape key -> the walk that takes that shape's next member.
  std::unordered_map<std::string, size_t> open_walks_;
  /// Walks the current document still feeds, ascending: every walk
  /// with a live member at document start, minus those cut.
  std::vector<size_t> fed_;
  /// One event's (ordinal, slot) reports, sorted before the sink.
  std::vector<std::pair<size_t, size_t>> reports_;
  mutable MemoryStats stats_;  // aggregated on demand
};

Status FrontierMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != slots_.size()) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  std::string key = FrontierFilter::ShapeKey(*query);
  auto open = open_walks_.find(key);
  if (open != open_walks_.end() &&
      walks_[open->second].filter->num_members() <
          FrontierFilter::kMaxMembers) {
    Walk& walk = walks_[open->second];
    auto member = walk.filter->AddMember(query);
    if (!member.ok()) return member.status();
    walk.slots.push_back(slot);
    slots_.push_back(SlotRef{open->second, *member});
    return Status::OK();
  }
  // A new shape, or a full walk: a fresh walk takes the shape's next
  // members.
  auto filter = FrontierFilter::Create(query, symbols());
  if (!filter.ok()) return filter.status();
  walks_.push_back(Walk{std::move(filter).value(), {slot}});
  open_walks_[std::move(key)] = walks_.size() - 1;
  slots_.push_back(SlotRef{walks_.size() - 1, 0});
  return Status::OK();
}

Status FrontierMatcher::Unsubscribe(size_t slot) {
  if (slot >= slots_.size()) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  FrontierFilter* filter = walks_[slots_[slot].walk].filter.get();
  const MemberMask bit = MemberMask{1} << slots_[slot].member;
  if ((filter->live_members() & bit) == 0) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  filter->RemoveMember(slots_[slot].member);
  return Status::OK();
}

Status FrontierMatcher::OnSymbolizedEvent(const Event& event,
                                          Symbol name_sym) {
  if (event.type == EventType::kStartDocument) {
    // Walks reset themselves on startDocument. A walk without live
    // members is not fed: it can never report.
    fed_.clear();
    for (size_t w = 0; w < walks_.size(); ++w) {
      walks_[w].reported = 0;
      if (walks_[w].filter->live_members() != 0) fed_.push_back(w);
    }
  }
  const bool at_end = event.type == EventType::kEndDocument;
  reports_.clear();
  for (size_t i = 0; i < fed_.size();) {
    Walk& walk = walks_[fed_[i]];
    FrontierFilter* filter = walk.filter.get();
    XPS_RETURN_IF_ERROR(filter->OnSymbolizedEvent(event, name_sym));
    // Mid-document a decided verdict is always a match: a committed
    // root. At endDocument the remaining members decide, false or true.
    MemberMask matched = filter->committed_members();
    if (at_end) {
      auto verdicts = filter->MatchedMembers();
      if (!verdicts.ok()) return verdicts.status();
      matched = *verdicts;
    }
    const MemberMask live = filter->live_members();
    const MemberMask fresh = matched & live & ~walk.reported;
    walk.reported |= fresh;
    if (sink_ != nullptr) {
      for (MemberMask rest = fresh; rest != 0; rest &= rest - 1) {
        const size_t member = static_cast<size_t>(__builtin_ctzll(rest));
        reports_.emplace_back(filter->DecidedAt(member), walk.slots[member]);
      }
    }
    if (short_circuit_ && !at_end && walk.reported == live) {
      // The cut: no live member's verdict can change, so the walk sees
      // no further events of this document.
      fed_.erase(fed_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  if (!reports_.empty()) {
    // The sink contract: ascending slot within one ordinal.
    std::sort(reports_.begin(), reports_.end());
    for (const auto& [ordinal, slot] : reports_) {
      sink_->OnSlotMatched(slot, ordinal);
    }
  }
  return Status::OK();
}

const MemoryStats& FrontierMatcher::stats() const {
  stats_.Reset();
  for (const Walk& walk : walks_) {
    if (walk.filter->live_members() != 0) {
      stats_.Accumulate(walk.filter->stats());
    }
  }
  return stats_;
}

}  // namespace

std::unique_ptr<Matcher> NewFrontierMatcher(SymbolTable* symbols) {
  return std::make_unique<FrontierMatcher>(symbols);
}

}  // namespace xpstream
