#include "test_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "xml/parser.h"
#include "xml/symbol_table.h"

namespace xpstream {
namespace testutil {

std::string TestDataPath(std::string_view name) {
  return std::string(XPSTREAM_TESTDATA_DIR) + "/" + std::string(name);
}

std::string LoadTestData(std::string_view name) {
  const std::string path = TestDataPath(name);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "test_util: cannot open testdata file %s\n",
                 path.c_str());
    std::abort();
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> LoadTestDataLines(std::string_view name) {
  std::istringstream in(LoadTestData(name));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

namespace {

/// Records and measures every event it receives, and switches the
/// parser to count mode once `count_from` events arrived.
class SwitchingSink : public EventSink {
 public:
  SwitchingSink(ParseRecord* out, DocumentStatsCollector* collector,
                size_t count_from)
      : out_(out), collector_(collector), count_from_(count_from) {}

  void Bind(XmlParser* parser) { parser_ = parser; }

  Status OnEvent(const Event& event) override {
    out_->events.Append(event);
    collector_->OnEvent(event);
    if (out_->events.size() == count_from_) {
      parser_->CountRestInto(collector_);
    }
    return Status::OK();
  }

 private:
  ParseRecord* out_;
  DocumentStatsCollector* collector_;
  size_t count_from_;
  XmlParser* parser_ = nullptr;
};

/// The fields of `a` and `b` that differ, rendered "name a/b"; "" when
/// all agree.
std::string StatsDifference(const DocumentStats& a, const DocumentStats& b) {
  const std::pair<const char*, std::pair<size_t, size_t>> fields[] = {
      {"total_nodes", {a.total_nodes, b.total_nodes}},
      {"element_count", {a.element_count, b.element_count}},
      {"attribute_count", {a.attribute_count, b.attribute_count}},
      {"text_count", {a.text_count, b.text_count}},
      {"depth", {a.depth, b.depth}},
      {"max_fanout", {a.max_fanout, b.max_fanout}},
      {"max_text_length", {a.max_text_length, b.max_text_length}},
      {"total_text_bytes", {a.total_text_bytes, b.total_text_bytes}},
      {"event_count", {a.event_count, b.event_count}},
      {"approx_bytes", {a.approx_bytes, b.approx_bytes}},
  };
  std::string out;
  for (const auto& [name, values] : fields) {
    if (values.first == values.second) continue;
    out += std::string(" ") + name + " " + std::to_string(values.first) +
           "/" + std::to_string(values.second);
  }
  return out;
}

}  // namespace

ParseRecord ParseRecorded(const std::vector<std::string_view>& chunks,
                          const ParseSetup& setup, size_t count_from) {
  ParseRecord out;
  SymbolTable symbols;
  DocumentStatsCollector collector;
  SwitchingSink sink(&out, &collector, count_from);
  XmlParserOptions options;
  options.symbols = setup.interned ? &symbols : nullptr;
  options.legacy_tokenizer = setup.legacy_tokenizer;
  XmlParser parser(&sink, options);
  sink.Bind(&parser);
  parser.SetMaxEntityExpansionBytes(setup.entity_cap);
  parser.SetMaxElementDepth(setup.depth_cap);
  if (count_from == 0) parser.CountRestInto(&collector);
  Status status = Status::OK();
  for (std::string_view chunk : chunks) {
    status = parser.Feed(chunk);
    if (!status.ok()) break;
  }
  if (status.ok()) status = parser.Finish();
  out.status = status.ToString();
  out.stats = collector.stats();
  out.names = symbols.size();
  return out;
}

std::string CountModeDisagreement(const std::vector<std::string_view>& chunks,
                                  ParseSetup setup) {
  const size_t depth = ParseRecorded(chunks, setup, kNoEventOrdinal)
                           .stats.depth;
  std::vector<size_t> depth_caps = {0};
  if (depth >= 2) depth_caps.push_back(depth - 1);
  if (depth >= 1) depth_caps.push_back(depth);
  for (size_t depth_cap : depth_caps) {
    setup.depth_cap = depth_cap;
    const ParseRecord full = ParseRecorded(chunks, setup, kNoEventOrdinal);
    const EventStream& all = full.events.events();
    const bool ok = full.status == Status::OK().ToString();
    for (size_t k = 0; k <= all.size(); ++k) {
      const ParseRecord counted = ParseRecorded(chunks, setup, k);
      EventStream expected(all.begin(), all.begin() + k);
      if (ok && k < all.size()) expected.push_back(Event::EndDocument());
      std::string why;
      if (counted.status != full.status) {
        why = "status " + counted.status + " vs " + full.status;
      } else if (counted.events.events() != expected) {
        why = "events " + EventStreamToString(counted.events.events()) +
              " vs " + EventStreamToString(expected);
      } else if (const std::string diff =
                     StatsDifference(counted.stats, full.stats);
                 !diff.empty()) {
        why = "stats (counted/full)" + diff;
      } else if (counted.names != full.names) {
        why = "names " + std::to_string(counted.names) + " vs " +
              std::to_string(full.names);
      }
      if (!why.empty()) {
        return "depth_cap=" + std::to_string(depth_cap) +
               " count_from=" + std::to_string(k) + ": " + why;
      }
    }
  }
  return "";
}

std::vector<std::string_view> FixedChunks(std::string_view xml, size_t width) {
  if (width == 0) return {xml};
  std::vector<std::string_view> chunks;
  for (size_t pos = 0; pos < xml.size(); pos += width) {
    chunks.push_back(xml.substr(pos, width));
  }
  return chunks;
}

}  // namespace testutil
}  // namespace xpstream
