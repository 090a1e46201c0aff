#include "stream/naive_filter.h"

#include "xpath/evaluator.h"

namespace xpstream {

Result<std::unique_ptr<NaiveTreeFilter>> NaiveTreeFilter::Create(
    const Query* query, SymbolTable* symbols) {
  auto filter = std::unique_ptr<NaiveTreeFilter>(new NaiveTreeFilter(query));
  filter->BindSymbols(symbols);
  XPS_RETURN_IF_ERROR(filter->Reset());
  return filter;
}

Status NaiveTreeFilter::Reset() {
  builder_ = std::make_unique<TreeBuilder>();
  buffered_.clear();
  done_ = false;
  matched_ = false;
  decided_at_ = kNoEventOrdinal;
  stats_.Reset();
  return Status::OK();
}

Status NaiveTreeFilter::OnSymbolizedEvent(const Event& event,
                                          Symbol name_sym) {
  (void)name_sym;  // names are evaluated from the buffered tree
  if (event.type == EventType::kStartDocument) {
    XPS_RETURN_IF_ERROR(Reset());
  }
  buffered_.push_back(event);
  XPS_RETURN_IF_ERROR(builder_->OnEvent(event));
  size_t bytes = 0;
  for (const Event& e : buffered_) {
    bytes += sizeof(Event) + e.name.size() + e.text.size();
  }
  stats_.buffered_bytes().Set(bytes);
  stats_.table_entries().Set(buffered_.size());
  if (event.type == EventType::kEndDocument) {
    if (!builder_->complete()) {
      return Status::NotWellFormed("incomplete document at endDocument");
    }
    std::unique_ptr<XmlDocument> doc = builder_->TakeDocument();
    matched_ = Evaluator(query_).BoolEval(*doc);
    done_ = true;
    // The buffered prefix is the whole document; the verdict is decided
    // at the ordinal of this endDocument event.
    decided_at_ = buffered_.size() - 1;
  }
  return Status::OK();
}

Result<bool> NaiveTreeFilter::Matched() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return matched_;
}

std::string NaiveTreeFilter::SerializeState() const {
  if (done_) return matched_ ? "M1" : "M0";
  return EventStreamToString(buffered_);
}

}  // namespace xpstream
