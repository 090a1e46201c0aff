// Tests of the public facade (include/xpstream/): engine-registry
// lookup, CompileQuery, the subscription model, byte-level and SAX-level
// document streams, and error recovery.

#include "xpstream/xpstream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "stream/engine_registry.h"
#include "stream/nfa_index.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

const char kBookXml[] =
    "<book publisher=\"acm\">"
    "<title>data streams</title>"
    "<author><last>fontoura</last></author>"
    "<price>25</price>"
    "</book>";

std::unique_ptr<Engine> MustCreate(const std::string& name) {
  auto engine = Engine::Create(name);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

// ---- registry ------------------------------------------------------

TEST(EngineRegistryTest, ListsAllBuiltinEngines) {
  std::vector<std::string> names = Engine::AvailableEngines();
  for (const char* expected :
       {"naive", "nfa", "lazy_dfa", "frontier", "nfa_index"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing engine: " << expected;
  }
}

TEST(EngineRegistryTest, UnknownEngineNameIsNotFound) {
  auto engine = Engine::Create("no_such_engine");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  EXPECT_NE(engine.status().message().find("no_such_engine"),
            std::string::npos);
}

TEST(EngineRegistryTest, EveryBuiltinCreatesAMatcher) {
  for (const std::string& name : EngineNames()) {
    auto matcher = CreateMatcher(name);
    ASSERT_TRUE(matcher.ok()) << name;
    EXPECT_EQ((*matcher)->name(), name);
    EXPECT_EQ((*matcher)->NumSubscriptions(), 0u);
  }
}

// ---- CompileQuery --------------------------------------------------

TEST(CompileQueryTest, CompilesAndRoundTrips) {
  auto query = CompileQuery("/book[price < 30]/title");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->text(), "/book[price < 30]/title");
  EXPECT_GT(query->size(), 1u);
  auto reparsed = CompileQuery(query->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), query->ToString());
}

TEST(CompileQueryTest, RejectsMalformedText) {
  EXPECT_FALSE(CompileQuery("/book[").ok());
  EXPECT_FALSE(CompileQuery("").ok());
}

// ---- facade over every engine --------------------------------------

TEST(EngineTest, SingleQueryVerdictOnEveryEngine) {
  for (const std::string& name : Engine::AvailableEngines()) {
    auto engine = MustCreate(name);
    ASSERT_TRUE(engine->Subscribe("q", "/book/title").ok()) << name;
    auto hit = engine->FilterXml(kBookXml);
    ASSERT_TRUE(hit.ok()) << name << ": " << hit.status().ToString();
    ASSERT_EQ(hit->size(), 1u);
    EXPECT_TRUE((*hit)[0]) << name;
    EXPECT_TRUE(*engine->Matched()) << name;

    auto miss = engine->FilterXml("<journal><title>x</title></journal>");
    ASSERT_TRUE(miss.ok()) << name;
    EXPECT_FALSE((*miss)[0]) << name;
    EXPECT_EQ(engine->documents_seen(), 2u) << name;
  }
}

TEST(EngineTest, FragmentViolationIsUnsupported) {
  // Automaton engines handle linear paths only.
  for (const char* name : {"nfa", "lazy_dfa", "nfa_index"}) {
    auto engine = MustCreate(name);
    Status status = engine->Subscribe("twig", "/book[price < 30]/title");
    ASSERT_FALSE(status.ok()) << name;
    EXPECT_EQ(status.code(), StatusCode::kUnsupported) << name;
    EXPECT_EQ(engine->NumSubscriptions(), 0u) << name;
  }
}

TEST(EngineTest, DuplicateSubscriptionIdFails) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("s", "/a").ok());
  Status status = engine->Subscribe("s", "/b");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, SubscribeCompiledQueryAndLookup) {
  auto engine = MustCreate("frontier");
  auto query = CompileQuery("/book/author/last");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(engine->Subscribe("authors", std::move(query).value()).ok());
  auto subscribed = engine->SubscribedQuery("authors");
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ((*subscribed)->text(), "/book/author/last");
  EXPECT_EQ(engine->SubscribedQuery("nope").status().code(),
            StatusCode::kNotFound);
}

// ---- byte-level multi-document streams ------------------------------

// Feeds one whole document in 7-byte chunks, which split tags
// mid-token.
void FeedChunked(Engine* engine, const std::string& xml) {
  for (size_t i = 0; i < xml.size(); i += 7) {
    ASSERT_TRUE(engine->Feed(xml.substr(i, 7)).ok());
  }
  ASSERT_TRUE(engine->FinishDocument().ok());
}

TEST(EngineTest, MultiDocumentByteStreamWithArbitraryChunking) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("cheap", "/book[price < 30]").ok());
  ASSERT_TRUE(engine->Subscribe("titled", "/book/title").ok());

  // Document 1, fed in chunks.
  FeedChunked(engine.get(), kBookXml);

  // Document 2 on the same engine: expensive and untitled.
  ASSERT_TRUE(engine->Feed("<book><price>99</price></book>").ok());
  ASSERT_TRUE(engine->FinishDocument().ok());

  ASSERT_EQ(engine->documents_seen(), 2u);
  ASSERT_EQ(engine->history().size(), 2u);
  EXPECT_TRUE(engine->history()[0][0]);   // cheap
  EXPECT_TRUE(engine->history()[0][1]);   // titled
  EXPECT_FALSE(engine->history()[1][0]);
  EXPECT_FALSE(engine->history()[1][1]);
  EXPECT_FALSE(*engine->Matched("cheap"));
  EXPECT_GT(engine->peak_table_entries(), 0u);

  // No state leaks between documents: one has b, the next has c, and
  // neither alone satisfies both.
  auto split = MustCreate("frontier");
  ASSERT_TRUE(split->Subscribe("bc", "/a[b and c]").ok());
  const std::vector<std::string> session =
      testutil::LoadTestDataLines("session_ab.xml");
  ASSERT_GE(session.size(), 2u);
  FeedChunked(split.get(), session[0]);
  FeedChunked(split.get(), session[1]);
  EXPECT_EQ(split->history(),
            (std::vector<std::vector<bool>>{{false}, {false}}));

  // The peak gauge spans the stream: a shallow document, then a nest
  // of depth 10 that holds one frontier record per open a.
  auto deep = MustCreate("frontier");
  ASSERT_TRUE(deep->Subscribe("q", "//a[b and c]").ok());
  std::string nest;
  for (int i = 0; i < 10; ++i) nest += "<a>";
  for (int i = 0; i < 10; ++i) nest += "</a>";
  FeedChunked(deep.get(), "<a/>");
  FeedChunked(deep.get(), nest);
  EXPECT_GE(deep->peak_table_entries(), 10u);
}

// A document abandoned mid-stream leaves no trace: no verdicts are
// recorded, and the documents after it match an engine that never saw
// it. Covers an explicit AbortDocument() after a partial byte Feed()
// and after a partial SAX stream.
TEST(EngineTest, AbortDocumentMidStream) {
  Random query_rng(5);
  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    auto query = GenerateLinearQuery(&query_rng, 1 + query_rng.Uniform(5),
                                     0.35, 0.15, 4);
    ASSERT_TRUE(query.ok());
    queries.push_back((*query)->ToString());
  }
  Random doc_rng(77);
  DocGenOptions doc_options;
  doc_options.max_depth = 6;
  doc_options.name_pool = 4;
  doc_options.names = {"s0", "s1", "s2", "s3"};
  EventCorpus corpus;
  for (int i = 0; i < 4; ++i) {
    corpus.Add(GenerateRandomDocument(&doc_rng, doc_options));
  }

  auto engine = MustCreate("nfa");
  auto reference = MustCreate("nfa");
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string id = "q" + std::to_string(q);
    ASSERT_TRUE(engine->Subscribe(id, queries[q]).ok());
    ASSERT_TRUE(reference->Subscribe(id, queries[q]).ok());
  }

  // Byte-level abort: feed half a document, abandon it.
  ASSERT_TRUE(engine->Feed("<s0><s1><s2>").ok());
  engine->AbortDocument();
  EXPECT_EQ(engine->documents_seen(), 0u);

  // SAX-level abort: open a document, stream a few events, abandon.
  ASSERT_TRUE(engine->OnEvent(Event::StartDocument()).ok());
  ASSERT_TRUE(engine->OnEvent(Event::StartElement("s0")).ok());
  engine->AbortDocument();
  EXPECT_EQ(engine->documents_seen(), 0u);

  for (const EventStream& events : corpus) {
    ASSERT_TRUE(engine->FilterEvents(events).ok());
    ASSERT_TRUE(reference->FilterEvents(events).ok());
  }
  EXPECT_EQ(engine->documents_seen(), corpus.size());
  EXPECT_EQ(engine->history(), reference->history());
}

TEST(EngineTest, KeepHistoryOffRecordsOnlyLastVerdicts) {
  EngineOptions options;
  options.engine = "naive";
  options.keep_history = false;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("q", "/a").ok());
  ASSERT_TRUE((*engine)->FilterXml("<a/>").ok());
  ASSERT_TRUE((*engine)->FilterXml("<b/>").ok());
  EXPECT_TRUE((*engine)->history().empty());
  EXPECT_EQ((*engine)->documents_seen(), 2u);
  EXPECT_FALSE(*(*engine)->Matched());
}

TEST(EngineTest, SubscribeMidDocumentFails) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("a", "/book").ok());
  ASSERT_TRUE(engine->Feed("<book><titl").ok());
  Status status = engine->Subscribe("b", "/journal");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Subscriptions may resume once the document completes.
  ASSERT_TRUE(engine->Feed("e/></book>").ok());
  ASSERT_TRUE(engine->FinishDocument().ok());
  EXPECT_TRUE(engine->Subscribe("b", "/journal").ok());
}

TEST(EngineTest, MalformedDocumentIsDiscardedAndEngineRecovers) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("q", "/a/b").ok());
  auto bad = engine->FilterXml("<a><b></a>");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(engine->documents_seen(), 0u);
  auto good = engine->FilterXml("<a><b/></a>");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE((*good)[0]);
}

TEST(EngineTest, SubscriptionAddedBetweenDocumentsHasNoVerdictYet) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("a", "/book").ok());
  ASSERT_TRUE(engine->FilterXml("<book/>").ok());
  ASSERT_TRUE(engine->Subscribe("b", "/journal").ok());
  EXPECT_TRUE(*engine->Matched("a"));
  auto pending = engine->Matched("b");
  ASSERT_FALSE(pending.ok());
  EXPECT_EQ(pending.status().code(), StatusCode::kInvalidArgument);
  // After the next document both have verdicts.
  ASSERT_TRUE(engine->FilterXml("<journal/>").ok());
  EXPECT_FALSE(*engine->Matched("a"));
  EXPECT_TRUE(*engine->Matched("b"));
}

TEST(EngineTest, FilterEventsDiscardsPartialDocumentOnFailure) {
  auto engine = MustCreate("frontier");
  ASSERT_TRUE(engine->Subscribe("q", "/a").ok());
  EventStream truncated = {Event::StartDocument(), Event::StartElement("a")};
  ASSERT_FALSE(engine->FilterEvents(truncated).ok());
  // The engine recovered; the next clean document filters normally.
  auto verdicts = engine->FilterXml("<a/>");
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_TRUE((*verdicts)[0]);
}

TEST(EngineTest, EveryEngineRecoversFromAMalformedEventStream) {
  // The event API skips the parser's checks, so the malformed document
  // reaches the facade. Every engine, "auto" included, must reject an
  // unclosed element and an unbalanced endElement, with the cut off
  // and on, and then start the next document clean.
  const std::vector<EventStream> malformed = {
      {Event::StartDocument(), Event::StartElement("a"),
       Event::EndDocument()},
      {Event::StartDocument(), Event::EndElement("a"), Event::EndDocument()},
  };
  std::vector<std::string> names = Engine::AvailableEngines();
  names.push_back("auto");
  for (const std::string& name : names) {
    for (bool short_circuit : {false, true}) {
      EngineOptions options;
      options.engine = name;
      options.short_circuit = short_circuit;
      auto engine = Engine::Create(options);
      ASSERT_TRUE(engine.ok()) << name;
      ASSERT_TRUE((*engine)->Subscribe("q", "/a").ok()) << name;
      for (const EventStream& events : malformed) {
        EXPECT_FALSE((*engine)->FilterEvents(events).ok())
            << name << " short_circuit=" << short_circuit << ": "
            << EventStreamToString(events);
        auto verdicts = (*engine)->FilterXml("<a/>");
        ASSERT_TRUE(verdicts.ok())
            << name << ": " << verdicts.status().ToString();
        EXPECT_TRUE((*verdicts)[0]) << name;
      }
    }
  }
}

TEST(EngineTest, ZeroSubscriptionsYieldEmptyVerdicts) {
  for (const std::string& name : Engine::AvailableEngines()) {
    auto engine = MustCreate(name);
    auto verdicts = engine->FilterXml("<a/>");
    ASSERT_TRUE(verdicts.ok()) << name << ": " << verdicts.status().ToString();
    EXPECT_TRUE(verdicts->empty()) << name;
  }
}

// ---- SAX-level entry point -----------------------------------------

TEST(EngineTest, SaxEventsAgreeWithBytes) {
  EventStream events;
  events.push_back(Event::StartDocument());
  events.push_back(Event::StartElement("book"));
  events.push_back(Event::Attribute("publisher", "acm"));
  events.push_back(Event::StartElement("title"));
  events.push_back(Event::Text("data streams"));
  events.push_back(Event::EndElement("title"));
  events.push_back(Event::EndElement("book"));
  events.push_back(Event::EndDocument());

  for (const std::string& name : Engine::AvailableEngines()) {
    auto by_events = MustCreate(name);
    auto by_bytes = MustCreate(name);
    for (Engine* engine : {by_events.get(), by_bytes.get()}) {
      ASSERT_TRUE(engine->Subscribe("t", "/book/title").ok()) << name;
      // '@' steps are outside some fragments (lazy_dfa); when an engine
      // rejects a query it must do so consistently with kUnsupported.
      Status attr = engine->Subscribe("p", "/book/@publisher");
      if (!attr.ok()) {
        EXPECT_EQ(attr.code(), StatusCode::kUnsupported) << name;
      }
    }
    ASSERT_EQ(by_events->NumSubscriptions(), by_bytes->NumSubscriptions())
        << name;
    auto from_events = by_events->FilterEvents(events);
    auto from_bytes = by_bytes->FilterXml(
        "<book publisher=\"acm\"><title>data streams</title></book>");
    ASSERT_TRUE(from_events.ok()) << name;
    ASSERT_TRUE(from_bytes.ok()) << name;
    EXPECT_EQ(*from_events, *from_bytes) << name;
    EXPECT_TRUE((*from_events)[0]) << name;
    if (by_events->NumSubscriptions() == 2) {
      EXPECT_TRUE((*from_events)[1]) << name;
    }
  }
}

TEST(EngineTest, SaxStreamValidatesDocumentBoundaries) {
  auto engine = MustCreate("naive");
  ASSERT_TRUE(engine->Subscribe("q", "/a").ok());
  // Content before startDocument.
  EXPECT_FALSE(engine->OnEvent(Event::StartElement("a")).ok());
  // Nested startDocument.
  ASSERT_TRUE(engine->OnEvent(Event::StartDocument()).ok());
  EXPECT_FALSE(engine->OnEvent(Event::StartDocument()).ok());
  engine->AbortDocument();
  // A clean document still works after recovery.
  EventStream events = {Event::StartDocument(), Event::StartElement("a"),
                        Event::EndElement("a"), Event::EndDocument()};
  auto verdicts = engine->FilterEvents(events);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_TRUE((*verdicts)[0]);
}

// ---- streaming NfaIndexRun ------------------------------------------

TEST(NfaIndexRunTest, StreamingRunIsReusableAcrossDocuments) {
  NfaIndex index;
  auto q0 = ParseQuery("/s0//s1");
  auto q1 = ParseQuery("//s2");
  auto q2 = ParseQuery("/s0/s3/@id");
  ASSERT_TRUE(q0.ok() && q1.ok() && q2.ok());
  ASSERT_TRUE(index.AddQuery(0, **q0).ok());
  ASSERT_TRUE(index.AddQuery(1, **q1).ok());
  ASSERT_TRUE(index.AddQuery(2, **q2).ok());

  EventStream events = {Event::StartDocument(),
                        Event::StartElement("s0"),
                        Event::StartElement("s3"),
                        Event::Attribute("id", "7"),
                        Event::StartElement("s1"),
                        Event::EndElement("s1"),
                        Event::EndElement("s3"),
                        Event::EndElement("s0"),
                        Event::EndDocument()};

  const std::vector<bool> expected = {true, false, true};
  NfaIndexRun run(&index);
  for (const Event& event : events) {
    ASSERT_TRUE(run.OnEvent(event).ok());
  }
  ASSERT_TRUE(run.done());
  auto first = run.Verdicts();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, expected);

  // The same run object handles the next document (recycled storage).
  for (const Event& event : events) {
    ASSERT_TRUE(run.OnEvent(event).ok());
  }
  auto second = run.Verdicts();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, expected);
}

// ---- entity-expansion cap ------------------------------------------

TEST(EngineEntityCapTest, CapFailsHostileDocumentAndEngineRecovers) {
  EngineOptions options;
  options.engine = "frontier";
  options.max_entity_expansion_bytes = 4;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("s", "//a").ok());

  std::string hostile = "<a>";
  for (int i = 0; i < 16; ++i) hostile += "&amp;";
  hostile += "</a>";
  auto bad = (*engine)->FilterXml(hostile);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError)
      << bad.status().ToString();

  // The failed document aborts cleanly; the next one filters normally,
  // and its per-document expansion budget starts fresh.
  auto clean = (*engine)->FilterXml("<a>&#65;&#66;</a>");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, std::vector<bool>{true});

  // Plain text never counts against the budget.
  auto roomy = (*engine)->FilterXml("<a>" + std::string(4096, 'x') + "</a>");
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(*roomy, std::vector<bool>{true});
}

}  // namespace
}  // namespace xpstream
