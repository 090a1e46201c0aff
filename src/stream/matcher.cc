#include "stream/matcher.h"

namespace xpstream {

Status FilterBankMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != filters_.size()) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  // Every member filter shares the bank's table: the node tests intern
  // here (subscription time), and the one symbol the bank resolves per
  // event is valid for all of them.
  auto filter = factory_(query, symbols());
  if (!filter.ok()) return filter.status();
  filters_.push_back(std::move(filter).value());
  decided_.push_back(0);
  return Status::OK();
}

Status FilterBankMatcher::Unsubscribe(size_t slot) {
  if (slot >= filters_.size() || filters_[slot] == nullptr) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  filters_[slot].reset();  // tombstone: slot keeps its number, stops evaluating
  return Status::OK();
}

Status FilterBankMatcher::OnSymbolizedEvent(const Event& event,
                                            Symbol name_sym) {
  if (event.type == EventType::kStartDocument) {
    // Member filters reset themselves on startDocument; so does the
    // decision bookkeeping. Tombstoned slots are not fed (they can
    // never report).
    decided_.assign(filters_.size(), 0);
    fed_.clear();
    for (size_t slot = 0; slot < filters_.size(); ++slot) {
      if (filters_[slot] != nullptr) fed_.push_back(slot);
    }
  }
  const bool at_end = event.type == EventType::kEndDocument;
  // One pass: feed each slot, then poll it for a fresh decision, so
  // matches reach the sink slot-ascending within the event.
  for (size_t i = 0; i < fed_.size();) {
    const size_t slot = fed_[i];
    StreamFilter* filter = filters_[slot].get();
    XPS_RETURN_IF_ERROR(filter->OnSymbolizedEvent(event, name_sym));
    const size_t position =
        decided_[slot] != 0 ? kNoEventOrdinal : filter->DecidedAt();
    if (position != kNoEventOrdinal) {
      decided_[slot] = 1;
      // Mid-document a decided verdict is always a match. At
      // endDocument the remaining filters decide, false or true.
      bool matched = true;
      if (at_end) {
        auto verdict = filter->Matched();
        if (!verdict.ok()) return verdict.status();
        matched = *verdict;
      }
      if (matched && sink_ != nullptr) sink_->OnSlotMatched(slot, position);
      if (short_circuit_ && !at_end) {
        // The cut: the verdict cannot change, so the slot sees no
        // further events of this document.
        fed_.erase(fed_.begin() + i);
        continue;
      }
    }
    ++i;
  }
  return Status::OK();
}

const MemoryStats& FilterBankMatcher::stats() const {
  stats_.Reset();
  for (const auto& filter : filters_) {
    if (filter != nullptr) stats_.Accumulate(filter->stats());
  }
  return stats_;
}

}  // namespace xpstream
