// Push-based result delivery: ResultSink callbacks, per-subscription
// delivery modes, earliest-decision positions, and short-circuit
// filtering.
//
// The contracts under test:
//  * decided positions are an engine-specific measurable, exact and
//    deterministic (automata commit on accepting-state entry, frontier
//    once the query root's last requirement is met, naive only at
//    endDocument);
//  * short_circuit changes the work, never the results — and malformed
//    document tails still fail even though no engine sees them.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/writer.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

/// Records every callback in arrival order.
struct RecordingSink : ResultSink {
  // (slot, doc_index, event_ordinal)
  std::vector<std::tuple<size_t, size_t, size_t>> matches;
  std::vector<std::pair<size_t, std::vector<bool>>> documents;

  void OnMatch(size_t slot, size_t doc_index, size_t ordinal) override {
    matches.emplace_back(slot, doc_index, ordinal);
  }
  void OnDocumentDone(size_t doc_index,
                      const std::vector<bool>& verdicts) override {
    documents.emplace_back(doc_index, verdicts);
  }
};

// Fixture document, with event ordinals:
//   0 startDocument, 1 <a>, 2 <b>, 3 </b>, 4 <c>, 5 "v", 6 </c>,
//   7 </a>, 8 endDocument.
EventStream FixtureDocument() {
  return {Event::StartDocument(), Event::StartElement("a"),
          Event::StartElement("b"), Event::EndElement("b"),
          Event::StartElement("c"), Event::Text("v"),
          Event::EndElement("c"),   Event::EndElement("a"),
          Event::EndDocument()};
}

std::vector<std::string> LinearQueries(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> queries;
  for (size_t i = 0; i < count; ++i) {
    auto query = GenerateLinearQuery(&rng, 1 + rng.Uniform(5), 0.35, 0.15, 4);
    EXPECT_TRUE(query.ok());
    queries.push_back((*query)->ToString());
  }
  return queries;
}

EventCorpus Corpus(size_t docs, uint64_t seed) {
  Random rng(seed);
  DocGenOptions options;
  options.max_depth = 6;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  EventCorpus corpus;
  for (size_t i = 0; i < docs; ++i) {
    corpus.Add(GenerateRandomDocument(&rng, options));
  }
  return corpus;
}

// Engine-specific commitment points on the fixture, exact: the NFA
// decides //b on ⟨b⟩ (ordinal 2), and so does the frontier engine (a
// predicate-free leaf is decided by its element's start, and the
// commitment propagates to the query root at once); both decide /a/c
// on ⟨c⟩ (ordinal 4), without waiting for ⟨/a⟩. The naive engine
// decides only at endDocument (ordinal 8) — the Θ(|D|)-buffering
// extreme the instrument is built to expose.
TEST(ApiSinkTest, DecidedPositionsAreEngineCommitmentPoints) {
  const EventStream doc = FixtureDocument();

  struct Case {
    const char* engine;
    const char* query;
    size_t expected;
  };
  const Case cases[] = {
      {"nfa", "//b", 2},       {"lazy_dfa", "//b", 2},
      {"nfa_index", "//b", 2}, {"frontier", "//b", 2},
      {"naive", "//b", 8},     {"nfa", "/a/c", 4},
      {"frontier", "/a/c", 4},
      {"nfa", "//zzz", 8},      // non-match decides at endDocument
      {"frontier", "//zzz", 8},
  };
  for (const Case& c : cases) {
    auto engine = Engine::Create(c.engine);
    ASSERT_TRUE(engine.ok()) << c.engine;
    ASSERT_TRUE((*engine)->Subscribe("q", c.query).ok())
        << c.engine << " " << c.query;
    ASSERT_TRUE((*engine)->FilterEvents(doc).ok()) << c.engine;
    auto decided = (*engine)->DecidedAt("q");
    ASSERT_TRUE(decided.ok()) << c.engine;
    EXPECT_EQ(*decided, c.expected) << c.engine << " " << c.query;
  }
}

// The three automaton engines share acceptance semantics, so their
// earliest-decision positions must agree exactly on shared fixtures.
// On linear queries the frontier engine commits at the same events:
// the leaf step is decided by its element's start, and every step
// above it by then has its one requirement met.
TEST(ApiSinkTest, AutomatonEnginesAgreeOnEarliestPositions) {
  const std::vector<std::string> queries = LinearQueries(17, 20260401);
  const EventCorpus corpus = Corpus(10, 11);

  std::vector<std::vector<size_t>> reference;  // per doc, per slot
  for (const char* name : {"nfa", "lazy_dfa", "nfa_index", "frontier"}) {
    auto engine = Engine::Create(name);
    ASSERT_TRUE(engine.ok()) << name;
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(
          (*engine)->Subscribe("q" + std::to_string(q), queries[q]).ok())
          << name << " " << queries[q];
    }
    std::vector<std::vector<size_t>> positions;
    for (const EventStream& events : corpus) {
      ASSERT_TRUE((*engine)->FilterEvents(events).ok()) << name;
      positions.push_back((*engine)->last_decided_at());
      ASSERT_EQ(positions.back().size(), queries.size());
    }
    if (reference.empty()) {
      reference = std::move(positions);
    } else {
      EXPECT_EQ(positions, reference) << name;
    }
  }
}

// kEarliest pushes at the deciding event; kAtEnd defers the same
// notification (same ordinal) to document completion. Verified by
// stepping events one at a time.
TEST(ApiSinkTest, DeliveryModesControlNotificationTiming) {
  auto engine = Engine::Create("nfa");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->Subscribe("early", "//b", DeliveryMode::kEarliest).ok());
  ASSERT_TRUE((*engine)->Subscribe("late", "//b").ok());  // kAtEnd default
  RecordingSink sink;
  (*engine)->SetSink(&sink);

  const EventStream doc = FixtureDocument();
  for (size_t i = 0; i < doc.size(); ++i) {
    ASSERT_TRUE((*engine)->OnEvent(doc[i]).ok());
    if (i >= 2 && i + 1 < doc.size()) {
      // After ⟨b⟩ (ordinal 2) the kEarliest subscription has been
      // delivered; the kAtEnd one waits for the document boundary.
      ASSERT_EQ(sink.matches.size(), 1u) << "after event " << i;
      EXPECT_EQ(sink.matches[0], std::make_tuple(size_t{0}, size_t{0},
                                                 size_t{2}));
      EXPECT_TRUE(sink.documents.empty());
    }
  }
  ASSERT_EQ(sink.matches.size(), 2u);
  // The deferred notification still reports the decided position.
  EXPECT_EQ(sink.matches[1], std::make_tuple(size_t{1}, size_t{0}, size_t{2}));
  ASSERT_EQ(sink.documents.size(), 1u);
  EXPECT_EQ(sink.documents[0].second, (std::vector<bool>{true, true}));
}

/// Every field of a DocumentProfile, in declaration order.
std::vector<size_t> ProfileFields(const DocumentProfile& profile) {
  return {profile.documents,          profile.max_depth,
          profile.max_fanout,         profile.max_text_bytes,
          profile.max_document_bytes, profile.max_events,
          profile.distinct_names};
}

// Short-circuit is a pure work cut: verdicts, history, decided
// positions and sink callbacks all match the full scan — for the
// facade skip path and for the per-slot commitment cut, which a
// holdout subscription that never matches leaves as the only cut that
// can fire. On bytes the parser validates and counts the cut tail, so
// the observed profile matches too.
TEST(ApiSinkTest, ShortCircuitMatchesFullScan) {
  // All subscriptions decide in the prologue; a filler tail, nested
  // one level deeper than the prologue, follows. Its attribute and
  // text carry characters the serializer escapes, so on bytes the
  // profile must see their decoded sizes, and its last element has a
  // name nothing before the cut uses, so distinct_names must count it.
  EventStream doc;
  doc.push_back(Event::StartDocument());
  doc.push_back(Event::StartElement("feed"));
  // Static storage: the events view these names for the whole test.
  for (const char* name : {"h0", "h1", "h2", "h3"}) {
    doc.push_back(Event::StartElement(name));
    doc.push_back(Event::EndElement(name));
  }
  for (int i = 0; i < 100; ++i) {
    doc.push_back(Event::StartElement("x"));
    doc.push_back(Event::Attribute("k", "a<b&\"c\""));
    doc.push_back(Event::StartElement("y"));
    doc.push_back(Event::Text("filler <&> filler"));
    doc.push_back(Event::EndElement("y"));
    doc.push_back(Event::EndElement("x"));
  }
  doc.push_back(Event::StartElement("tail_only"));
  doc.push_back(Event::EndElement("tail_only"));
  doc.push_back(Event::EndElement("feed"));
  doc.push_back(Event::EndDocument());
  // A second document where not everything matches: no cut happens.
  EventStream partial = FixtureDocument();
  std::vector<std::string> xml;
  for (const EventStream* events : {&doc, &partial}) {
    auto text = EventsToXml(*events);
    ASSERT_TRUE(text.ok());
    xml.push_back(std::move(text).value());
  }

  enum Entry { kEvents, kWholeBytes, kChunkedBytes };
  for (const char* name :
       {"frontier", "nfa", "lazy_dfa", "naive", "nfa_index", "auto"}) {
    for (bool holdout : {false, true}) {
      for (Entry entry : {kEvents, kWholeBytes, kChunkedBytes}) {
        const std::string label = std::string(name) +
                                  (holdout ? " holdout" : "") + " entry " +
                                  std::to_string(entry);
        RecordingSink reference;
        std::vector<std::vector<bool>> reference_history;
        std::vector<std::vector<size_t>> reference_positions;
        std::vector<size_t> reference_profile;
        size_t reference_peak = 0;
        for (bool short_circuit : {false, true}) {
          EngineOptions options;
          options.engine = name;
          options.short_circuit = short_circuit;
          auto engine = Engine::Create(options);
          ASSERT_TRUE(engine.ok()) << label;
          RecordingSink sink;
          (*engine)->SetSink(&sink);
          for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE((*engine)
                            ->Subscribe("h" + std::to_string(i),
                                        "//h" + std::to_string(i),
                                        DeliveryMode::kEarliest)
                            .ok())
                << label;
          }
          if (holdout) {
            ASSERT_TRUE(
                (*engine)->Subscribe("miss", "//zzz", DeliveryMode::kEarliest)
                    .ok())
                << label;
          }
          std::vector<std::vector<size_t>> positions;
          Random widths(17);  // the same chunking with the cut off and on
          for (size_t d = 0; d < 2; ++d) {
            if (entry == kEvents) {
              ASSERT_TRUE(
                  (*engine)->FilterEvents(d == 0 ? doc : partial).ok())
                  << label;
            } else if (entry == kWholeBytes) {
              ASSERT_TRUE((*engine)->FilterXml(xml[d]).ok()) << label;
            } else {
              const std::string_view text = xml[d];
              for (size_t pos = 0; pos < text.size();) {
                const size_t width = 1 + widths.Uniform(97);
                ASSERT_TRUE((*engine)->Feed(text.substr(pos, width)).ok())
                    << label;
                pos += width;
              }
              ASSERT_TRUE((*engine)->FinishDocument().ok()) << label;
            }
            positions.push_back((*engine)->last_decided_at());
          }
          if (!short_circuit) {
            reference = std::move(sink);
            reference_history = (*engine)->history();
            reference_positions = std::move(positions);
            reference_profile = ProfileFields((*engine)->observed_profile());
            reference_peak = (*engine)->peak_table_entries();
            EXPECT_EQ((*engine)->documents_short_circuited(), 0u) << label;
            continue;
          }
          EXPECT_EQ(sink.matches, reference.matches) << label;
          EXPECT_EQ(sink.documents, reference.documents) << label;
          EXPECT_EQ((*engine)->history(), reference_history) << label;
          EXPECT_EQ(positions, reference_positions) << label;
          EXPECT_EQ(ProfileFields((*engine)->observed_profile()),
                    reference_profile)
              << label;
          // Gauges stop at each slot's commitment. The stack engines
          // peak in the deeper tail, so only the holdout reaches it.
          EXPECT_LE((*engine)->peak_table_entries(), reference_peak) << label;
          if (holdout && (std::string(name) == "nfa" ||
                          std::string(name) == "lazy_dfa")) {
            EXPECT_LT((*engine)->peak_table_entries(), reference_peak)
                << label;
          }
          // The facade skips a whole tail only when every subscription
          // decided mid-document: without the holdout, and never for
          // naive, which commits at endDocument.
          const bool facade_cut = !holdout && std::string(name) != "naive";
          EXPECT_EQ((*engine)->documents_short_circuited(),
                    facade_cut ? 1u : 0u)
              << label;
        }
      }
    }
  }
}

// A malformed tail after the decision point must still fail: byte
// input through the parser, SAX input through the facade's shape check.
TEST(ApiSinkTest, ShortCircuitRejectsMalformedTails) {
  EngineOptions options;
  options.engine = "nfa";
  options.short_circuit = true;

  {  // Byte path: mismatched close tag after //b already decided.
    auto engine = Engine::Create(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Subscribe("q", "//b").ok());
    auto verdicts = (*engine)->FilterXml("<a><b/><c></a>");
    EXPECT_FALSE(verdicts.ok());
    EXPECT_EQ((*engine)->documents_seen(), 0u);
    auto retry = (*engine)->FilterXml("<a><b/></a>");
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE((*retry)[0]);
    EXPECT_EQ((*engine)->documents_seen(), 1u);
  }
  {  // Byte path, whole and chunked: every tail after the cut (//b
     // decides at <b>, ordinal 2) fails with the status the full parse
     // reports, and the next good document still matches.
    const std::string prefix = "<a><b/>";
    std::string flood = "<c>";
    for (int i = 0; i < 40; ++i) flood += "&#65;";
    flood += "</c></a>";
    const std::string tails[] = {
        "<c></d></a>",
        "<c><c><c><c><c><c></c></c></c></c></c></c></a>",
        "<c>&bogus;</c></a>",
        flood,
        "</a>tail",
        "<!-- never closed</a>",
    };
    for (const std::string& tail : tails) {
      for (size_t width : {size_t{0}, size_t{3}}) {
        std::string reference;  // the status with the cut off
        for (bool short_circuit : {false, true}) {
          const std::string label = tail + " width=" + std::to_string(width) +
                                    " cut=" + std::to_string(short_circuit);
          EngineOptions tail_options = options;
          tail_options.short_circuit = short_circuit;
          tail_options.max_element_depth = 6;
          tail_options.max_entity_expansion_bytes = 16;
          auto engine = Engine::Create(tail_options);
          ASSERT_TRUE(engine.ok());
          RecordingSink sink;
          (*engine)->SetSink(&sink);
          ASSERT_TRUE(
              (*engine)->Subscribe("q", "//b", DeliveryMode::kEarliest).ok());
          const std::string text = prefix + tail;
          Status status;
          if (width == 0) {
            status = (*engine)->FilterXml(text).status();
          } else {
            for (size_t pos = 0; status.ok() && pos < text.size();
                 pos += width) {
              status = (*engine)->Feed(text.substr(pos, width));
            }
            if (status.ok()) status = (*engine)->FinishDocument();
            if (!status.ok()) (*engine)->AbortDocument();
          }
          ASSERT_FALSE(status.ok()) << label;
          EXPECT_EQ((*engine)->documents_seen(), 0u) << label;
          // The match was pushed before the tail went wrong.
          ASSERT_EQ(sink.matches.size(), 1u) << label;
          EXPECT_EQ(std::get<2>(sink.matches[0]), 2u) << label;
          if (!short_circuit) {
            reference = status.ToString();
          } else {
            EXPECT_EQ(status.ToString(), reference) << label;
          }
          auto retry = (*engine)->FilterXml("<a><b/><c>&#65;</c></a>");
          ASSERT_TRUE(retry.ok()) << label;
          EXPECT_TRUE((*retry)[0]) << label;
          EXPECT_EQ((*engine)->documents_seen(), 1u) << label;
        }
      }
    }
  }
  {  // SAX path: unbalanced endElement in the skipped tail.
    auto engine = Engine::Create(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Subscribe("q", "//b").ok());
    EventStream events = {Event::StartDocument(), Event::StartElement("a"),
                          Event::StartElement("b"), Event::EndElement("b"),
                          Event::EndElement("a"),   Event::EndElement("a"),
                          Event::EndDocument()};
    auto verdicts = (*engine)->FilterEvents(events);
    EXPECT_FALSE(verdicts.ok());
    EXPECT_EQ((*engine)->documents_seen(), 0u);
  }
  {  // Mixed auto: //b[c = "x"] runs on frontier and is cut once it
     // commits at </c>; //zzz runs live on nfa_index. The malformed
     // tails below reach only the engine that would not reject them,
     // so the facade's stream-shape check must.
    EngineOptions auto_options = options;
    auto_options.engine = "auto";
    auto engine = Engine::Create(auto_options);
    ASSERT_TRUE(engine.ok());
    RecordingSink sink;
    (*engine)->SetSink(&sink);
    ASSERT_TRUE(
        (*engine)->Subscribe("b", "//b[c = \"x\"]", DeliveryMode::kEarliest)
            .ok());
    ASSERT_TRUE((*engine)->Subscribe("zzz", "//zzz").ok());
    auto b_plan = (*engine)->PlanOf("b");
    ASSERT_TRUE(b_plan.ok());
    EXPECT_EQ(b_plan->engine, "frontier");
    auto zzz_plan = (*engine)->PlanOf("zzz");
    ASSERT_TRUE(zzz_plan.ok());
    EXPECT_EQ(zzz_plan->engine, "nfa_index");
    // <a><b><c>x</c></b>: the frontier slot commits at </c> (ordinal
    // 5), where c's value is known and b's one requirement is met.
    const EventStream prologue = {
        Event::StartDocument(), Event::StartElement("a"),
        Event::StartElement("b"), Event::StartElement("c"),
        Event::Text("x"),         Event::EndElement("c"),
        Event::EndElement("b")};
    EventStream open_tail = prologue;
    open_tail.push_back(Event::StartElement("open"));
    open_tail.push_back(Event::EndDocument());
    EventStream extra_end = prologue;
    extra_end.push_back(Event::EndElement("a"));
    extra_end.push_back(Event::EndElement("a"));
    extra_end.push_back(Event::EndDocument());
    for (const EventStream* events : {&open_tail, &extra_end}) {
      sink.matches.clear();
      auto verdicts = (*engine)->FilterEvents(*events);
      ASSERT_FALSE(verdicts.ok());
      EXPECT_EQ(verdicts.status().code(), StatusCode::kNotWellFormed);
      EXPECT_EQ((*engine)->documents_seen(), 0u);
      // The frontier slot had committed before the tail went wrong.
      ASSERT_EQ(sink.matches.size(), 1u);
      EXPECT_EQ(std::get<2>(sink.matches[0]), 5u);
    }
    // The engine stays usable for the next (well-formed) document.
    EventStream good = prologue;
    good.push_back(Event::EndElement("a"));
    good.push_back(Event::EndDocument());
    auto retry = (*engine)->FilterEvents(good);
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE((*retry)[0]);
    EXPECT_FALSE((*retry)[1]);
    EXPECT_EQ((*engine)->documents_seen(), 1u);
  }
  {  // SAX path: endDocument while skipped elements are still open.
    auto engine = Engine::Create(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Subscribe("q", "//b").ok());
    EventStream events = {Event::StartDocument(), Event::StartElement("a"),
                          Event::StartElement("b"), Event::EndElement("b"),
                          Event::StartElement("open"), Event::EndDocument()};
    auto verdicts = (*engine)->FilterEvents(events);
    EXPECT_FALSE(verdicts.ok());
    EXPECT_EQ((*engine)->documents_seen(), 0u);
    // The engine stays usable for the next (well-formed) document.
    auto retry = (*engine)->FilterEvents(FixtureDocument());
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE((*retry)[0]);
  }
}

// Zero subscriptions with short_circuit on: nothing can decide, the
// guard must not trip, and documents still complete.
TEST(ApiSinkTest, ShortCircuitZeroSubscriptions) {
  EngineOptions options;
  options.engine = "frontier";
  options.short_circuit = true;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  auto verdicts = (*engine)->FilterXml("<a><b/></a>");
  ASSERT_TRUE(verdicts.ok());
  EXPECT_TRUE(verdicts->empty());
  EXPECT_EQ((*engine)->documents_seen(), 1u);
  EXPECT_EQ((*engine)->documents_short_circuited(), 0u);
}

// Doc indices in callbacks follow documents_seen across a stream, and
// detaching the sink stops deliveries.
TEST(ApiSinkTest, DocIndicesAndDetach) {
  auto engine = Engine::Create("nfa_index");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->Subscribe("q", "//b", DeliveryMode::kEarliest).ok());
  RecordingSink sink;
  (*engine)->SetSink(&sink);
  const EventStream doc = FixtureDocument();
  ASSERT_TRUE((*engine)->FilterEvents(doc).ok());
  ASSERT_TRUE((*engine)->FilterEvents(doc).ok());
  ASSERT_EQ(sink.matches.size(), 2u);
  EXPECT_EQ(std::get<1>(sink.matches[0]), 0u);
  EXPECT_EQ(std::get<1>(sink.matches[1]), 1u);
  ASSERT_EQ(sink.documents.size(), 2u);
  EXPECT_EQ(sink.documents[1].first, 1u);

  (*engine)->SetSink(nullptr);
  ASSERT_TRUE((*engine)->FilterEvents(doc).ok());
  EXPECT_EQ(sink.matches.size(), 2u);
  EXPECT_EQ(sink.documents.size(), 2u);
  EXPECT_EQ((*engine)->documents_seen(), 3u);
}

// Every startDocument takes the next index, so a kEarliest match pushed
// before an abort never shares its index with the next document's.
TEST(ApiSinkTest, AbortedDocumentIndexIsNeverReused) {
  auto engine = Engine::Create("frontier");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->Subscribe("q", "//b", DeliveryMode::kEarliest).ok());
  RecordingSink sink;
  (*engine)->SetSink(&sink);
  // The prefix commits //b at <b> (ordinal 2); then the document goes.
  ASSERT_TRUE((*engine)->Feed("<a><b>half-open").ok());
  ASSERT_EQ(sink.matches.size(), 1u);
  (*engine)->AbortDocument();
  ASSERT_TRUE((*engine)->FilterXml("<a><b/></a>").ok());
  ASSERT_EQ(sink.matches.size(), 2u);
  EXPECT_EQ(sink.matches[0], std::make_tuple(size_t{0}, size_t{0}, size_t{2}));
  EXPECT_EQ(sink.matches[1], std::make_tuple(size_t{0}, size_t{1}, size_t{2}));
  ASSERT_EQ(sink.documents.size(), 1u);
  EXPECT_EQ(sink.documents[0].first, 1u);
  EXPECT_EQ((*engine)->documents_seen(), 1u);
}

}  // namespace
}  // namespace xpstream
