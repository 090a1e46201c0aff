// Symbolization parity through the public facade. The interned-symbol
// pipeline must be a pure representation change: for every engine,
// verdicts, history, decided positions, and the full ResultSink
// callback sequence must be bit-identical whether events reach the
// engines pre-symbolized (the byte path, where the facade's parser
// interns) or unsymbolized (caller-built SAX / batch events, resolved
// lazily at the matcher boundary).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

/// Records every sink callback verbatim for sequence comparison.
struct RecordingSink : ResultSink {
  // (slot, doc, ordinal) per OnMatch; (doc, verdicts) per OnDocumentDone.
  std::vector<std::tuple<size_t, size_t, size_t>> matches;
  std::vector<std::pair<size_t, std::vector<bool>>> documents;
  void OnMatch(size_t slot, size_t doc, size_t ordinal) override {
    matches.emplace_back(slot, doc, ordinal);
  }
  void OnDocumentDone(size_t doc, const std::vector<bool>& v) override {
    documents.emplace_back(doc, v);
  }
};

/// Everything observable from one engine run over a corpus.
struct RunTrace {
  std::vector<std::vector<bool>> history;
  std::vector<std::vector<size_t>> decided;  // per doc, per slot
  std::vector<std::tuple<size_t, size_t, size_t>> matches;
  std::vector<std::pair<size_t, std::vector<bool>>> documents;

  bool operator==(const RunTrace& other) const {
    return history == other.history && decided == other.decided &&
           matches == other.matches && documents == other.documents;
  }
};

enum class EntryPoint {
  kBytes,      // FilterXml: the facade's parser symbolizes
  kBatch,      // FilterEvents over unsymbolized caller events
  kSaxEvents,  // OnEvent loop over unsymbolized caller events
};

const char* EntryPointName(EntryPoint entry) {
  switch (entry) {
    case EntryPoint::kBytes:
      return "bytes";
    case EntryPoint::kBatch:
      return "batch";
    case EntryPoint::kSaxEvents:
      return "sax";
  }
  return "?";
}

RunTrace RunCorpus(const std::string& engine_name, EntryPoint entry,
                   const std::vector<std::string>& queries,
                   const std::vector<std::string>& xml_corpus,
                   const std::vector<EventStream>& event_corpus) {
  RunTrace trace;
  auto engine = Engine::Create(engine_name);
  EXPECT_TRUE(engine.ok()) << engine_name;
  if (!engine.ok()) return trace;
  RecordingSink sink;
  (*engine)->SetSink(&sink);
  for (size_t q = 0; q < queries.size(); ++q) {
    // Alternate delivery modes so both the earliest (mid-stream) and
    // at-end callback paths are exercised and compared.
    EXPECT_TRUE((*engine)
                    ->Subscribe("q" + std::to_string(q), queries[q],
                                q % 2 == 0 ? DeliveryMode::kEarliest
                                           : DeliveryMode::kAtEnd)
                    .ok())
        << engine_name << " rejected " << queries[q];
  }
  for (size_t d = 0; d < xml_corpus.size(); ++d) {
    switch (entry) {
      case EntryPoint::kBytes: {
        auto verdicts = (*engine)->FilterXml(xml_corpus[d]);
        EXPECT_TRUE(verdicts.ok()) << engine_name;
        break;
      }
      case EntryPoint::kBatch: {
        auto verdicts = (*engine)->FilterEvents(event_corpus[d]);
        EXPECT_TRUE(verdicts.ok()) << engine_name;
        break;
      }
      case EntryPoint::kSaxEvents: {
        for (const Event& event : event_corpus[d]) {
          EXPECT_TRUE((*engine)->OnEvent(event).ok()) << engine_name;
        }
        break;
      }
    }
    trace.decided.push_back((*engine)->last_decided_at());
  }
  trace.history = (*engine)->history();
  trace.matches = std::move(sink.matches);
  trace.documents = std::move(sink.documents);
  return trace;
}

class SymbolPipelineParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Linear queries with descendant steps, wildcards and attribute
    // leaves over the corpus name pool. lazy_dfa rejects '@' steps, so
    // the attribute-free prefix is used for it.
    Random query_rng(20260715);
    for (int i = 0; i < 12; ++i) {
      auto query = GenerateLinearQuery(&query_rng, 1 + query_rng.Uniform(4),
                                       0.35, 0.15, 4);
      ASSERT_TRUE(query.ok());
      queries_.push_back((*query)->ToString());
    }
    queries_.push_back("//s0/@id");  // attribute leaf (skipped by lazy_dfa)

    Random doc_rng(42);
    DocGenOptions options;
    options.max_depth = 6;
    options.name_pool = 4;
    options.attr_prob = 0.3;
    options.names = {"s0", "s1", "s2", "s3"};
    for (int i = 0; i < 10; ++i) {
      auto doc = GenerateRandomDocument(&doc_rng, options);
      EventStream events = doc->ToEvents();
      auto xml = EventsToXml(events);
      ASSERT_TRUE(xml.ok());
      // Re-parse (without a table) so the event corpus is exactly what
      // the byte corpus tokenizes to, minus the symbols.
      auto reparsed = ParseXmlToEvents(*xml);
      ASSERT_TRUE(reparsed.ok());
      for (const Event& e : *reparsed) {
        ASSERT_EQ(e.name_sym, kNoSymbol);  // the unsymbolized side
      }
      xml_corpus_.push_back(std::move(xml).value());
      event_buffers_.push_back(std::move(reparsed).value());
      event_corpus_.push_back(event_buffers_.back().events());
    }
  }

  std::vector<std::string> QueriesFor(const std::string& engine) const {
    if (engine != "lazy_dfa") return queries_;
    return std::vector<std::string>(queries_.begin(), queries_.end() - 1);
  }

  std::vector<std::string> queries_;
  std::vector<std::string> xml_corpus_;
  std::vector<EventBuffer> event_buffers_;  // owns the events' bytes
  std::vector<EventStream> event_corpus_;
};

TEST_F(SymbolPipelineParityTest, AllEnginesAllEntryPoints) {
  for (const std::string& name : Engine::AvailableEngines()) {
    const std::vector<std::string> queries = QueriesFor(name);
    // The reference: the byte path (parser-symbolized events).
    const RunTrace reference = RunCorpus(name, EntryPoint::kBytes, queries,
                                         xml_corpus_, event_corpus_);
    ASSERT_FALSE(reference.history.empty()) << name;
    size_t hits = 0;
    for (const auto& doc : reference.history) {
      for (bool v : doc) hits += v;
    }
    EXPECT_GT(hits, 0u) << name << ": corpus produced no matches";
    for (EntryPoint entry : {EntryPoint::kBatch, EntryPoint::kSaxEvents}) {
      const RunTrace trace =
          RunCorpus(name, entry, queries, xml_corpus_, event_corpus_);
      EXPECT_TRUE(trace == reference)
          << name << " entry=" << EntryPointName(entry)
          << ": symbolized/unsymbolized runs diverge";
    }
  }
}

// The facade's verdicts must also be independent of *when* names enter
// the table: a fresh engine vs one whose table is already warm from
// earlier unrelated documents (different ids for the same names).
TEST_F(SymbolPipelineParityTest, VerdictsIndependentOfTableWarmth) {
  for (const std::string& name : Engine::AvailableEngines()) {
    const std::vector<std::string> queries = QueriesFor(name);
    auto cold = Engine::Create(name);
    auto warm = Engine::Create(name);
    ASSERT_TRUE(cold.ok() && warm.ok()) << name;
    // Warm the second engine's table with names in a scrambled order.
    ASSERT_TRUE(
        (*warm)->FilterXml("<s3><s1/><zz/><s0 id=\"1\"/></s3>").ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string id = "q" + std::to_string(q);
      ASSERT_TRUE((*cold)->Subscribe(id, queries[q]).ok()) << name;
      ASSERT_TRUE((*warm)->Subscribe(id, queries[q]).ok()) << name;
    }
    for (const std::string& xml : xml_corpus_) {
      auto cold_verdicts = (*cold)->FilterXml(xml);
      auto warm_verdicts = (*warm)->FilterXml(xml);
      ASSERT_TRUE(cold_verdicts.ok() && warm_verdicts.ok()) << name;
      EXPECT_EQ(*cold_verdicts, *warm_verdicts) << name;
    }
  }
}

// Events symbolized against an unrelated pipeline's table must filter
// exactly like unsymbolized ones: cached ids are verified against the
// consuming engine's table, never trusted (a foreign id falls back to
// interning instead of matching the wrong name).
TEST_F(SymbolPipelineParityTest, ForeignSymbolsAreNotTrusted) {
  // A foreign table whose ids are deliberately scrambled relative to
  // any engine's first-intern order over this corpus.
  SymbolTable foreign;
  for (const char* name : {"zz", "s3", "s1", "id", "s0", "s2"}) {
    foreign.Intern(name);
  }
  std::vector<EventBuffer> foreign_buffers;  // owns the events' bytes
  std::vector<EventStream> foreign_corpus;
  for (const std::string& xml : xml_corpus_) {
    auto events = ParseXmlToEvents(xml, &foreign);
    ASSERT_TRUE(events.ok());
    foreign_buffers.push_back(std::move(events).value());
    foreign_corpus.push_back(foreign_buffers.back().events());
  }
  for (const std::string& name : Engine::AvailableEngines()) {
    const std::vector<std::string> queries = QueriesFor(name);
    auto plain = Engine::Create(name);
    auto fed_foreign = Engine::Create(name);
    ASSERT_TRUE(plain.ok() && fed_foreign.ok()) << name;
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string id = "q" + std::to_string(q);
      ASSERT_TRUE((*plain)->Subscribe(id, queries[q]).ok()) << name;
      ASSERT_TRUE((*fed_foreign)->Subscribe(id, queries[q]).ok()) << name;
    }
    for (size_t d = 0; d < xml_corpus_.size(); ++d) {
      auto expected = (*plain)->FilterXml(xml_corpus_[d]);
      auto actual = (*fed_foreign)->FilterEvents(foreign_corpus[d]);
      ASSERT_TRUE(expected.ok() && actual.ok()) << name;
      EXPECT_EQ(*actual, *expected)
          << name << ": foreign-symbolized events changed verdicts";
    }
  }
}

// A rejected Subscribe must not leave the query's names behind in the
// engine's shared table.
TEST_F(SymbolPipelineParityTest, RejectedSubscribeDoesNotPolluteTheTable) {
  for (const char* engine_name : {"nfa", "lazy_dfa"}) {
    auto engine = Engine::Create(engine_name);
    ASSERT_TRUE(engine.ok());
    const size_t before = (*engine)->stats().symbol_bytes().current();
    std::string too_long = "/r";
    for (int i = 0; i < 70; ++i) too_long += "/unique" + std::to_string(i);
    Status status = (*engine)->Subscribe("big", too_long);
    ASSERT_FALSE(status.ok()) << engine_name;
    EXPECT_EQ((*engine)->stats().symbol_bytes().current(), before)
        << engine_name << ": rejected query interned its names";
  }
}

// symbol_bytes: the facade reports its table's footprint, and the gauge
// grows as new names stream in.
TEST_F(SymbolPipelineParityTest, FacadeReportsSymbolTableFootprint) {
  auto engine = Engine::Create("frontier");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("q", "/s0//s1").ok());
  const size_t after_subscribe = (*engine)->stats().symbol_bytes().current();
  EXPECT_GT(after_subscribe, 0u);  // node tests interned at subscribe
  ASSERT_TRUE((*engine)->FilterXml(xml_corpus_.front()).ok());
  EXPECT_GT((*engine)->stats().symbol_bytes().current(), after_subscribe);
}

}  // namespace
}  // namespace xpstream
