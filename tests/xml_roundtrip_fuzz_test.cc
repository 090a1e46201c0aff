// Round-trip fuzzing of the XML substrate:
//   tree -> events -> text -> (chunked) parser -> events -> tree
// must be the identity on structure and string values, for randomly
// generated documents and random chunkings.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/tree_builder.h"
#include "xml/writer.h"

namespace xpstream {
namespace {

/// Normalizes an event stream: merges adjacent text events (the parser
/// may split text at chunk boundaries before the TreeBuilder merges).
/// Returns an owning buffer — merged text needs its own storage now
/// that events carry views.
EventBuffer NormalizeText(const EventStream& events) {
  EventBuffer out;
  std::string pending;
  auto flush = [&] {
    if (!pending.empty()) out.Append(Event::Text(pending));
    pending.clear();
  };
  for (const Event& e : events) {
    if (e.type == EventType::kText) {
      pending += e.text;
      continue;
    }
    flush();
    out.Append(e);
  }
  flush();
  return out;
}

TEST(XmlRoundTripFuzzTest, RandomDocumentsSurviveSerializationCycles) {
  Random rng(13579);
  DocGenOptions opts;
  opts.max_depth = 5;
  opts.text_prob = 0.7;
  opts.attr_prob = 0.3;
  for (int i = 0; i < 120; ++i) {
    auto doc = GenerateRandomDocument(&rng, opts);
    EventStream original = doc->ToEvents();

    auto xml = EventsToXml(original);
    ASSERT_TRUE(xml.ok()) << xml.status().ToString();

    // Re-parse in random chunks.
    EventStream reparsed;
    CollectingSink sink(&reparsed);
    XmlParser parser(&sink);
    size_t pos = 0;
    while (pos < xml->size()) {
      size_t chunk = 1 + rng.Uniform(17);
      ASSERT_TRUE(parser.Feed(xml->substr(pos, chunk)).ok());
      pos += chunk;
    }
    ASSERT_TRUE(parser.Finish().ok());

    EXPECT_EQ(NormalizeText(reparsed), NormalizeText(original))
        << "cycle " << i << "\n"
        << *xml;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlRoundTripFuzzTest, IndentedOutputPreservesStructure) {
  // Pretty printing may alter whitespace-only text, but the element
  // structure and attribute values must survive.
  Random rng(8642);
  DocGenOptions opts;
  opts.max_depth = 4;
  opts.text_prob = 0.0;  // avoid mixed content, where indent adds text
  opts.attr_prob = 0.4;
  WriterOptions writer_opts;
  writer_opts.indent = true;
  for (int i = 0; i < 60; ++i) {
    auto doc = GenerateRandomDocument(&rng, opts);
    auto xml = DocumentToXml(*doc, writer_opts);
    ASSERT_TRUE(xml.ok());
    auto reparsed = ParseXmlToDocument(*xml);
    ASSERT_TRUE(reparsed.ok()) << *xml;
    // Compare structure: strip whitespace-only text events.
    EventStream a, b;
    for (const Event& e : doc->ToEvents()) {
      if (e.type != EventType::kText) a.push_back(e);
    }
    for (const Event& e : (*reparsed)->ToEvents()) {
      if (e.type != EventType::kText) b.push_back(e);
    }
    EXPECT_EQ(a, b);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlRoundTripFuzzTest, ScenarioDocumentsRoundTrip) {
  Random rng(11);
  auto feed = GenerateMessageFeed(15, 5, &rng);
  auto xml = DocumentToXml(*feed);
  ASSERT_TRUE(xml.ok());
  auto reparsed = ParseXmlToDocument(*xml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(NormalizeText((*reparsed)->ToEvents()),
            NormalizeText(feed->ToEvents()));
  for (const auto& book : GenerateBibliographyCorpus(10, 5)) {
    auto text = DocumentToXml(*book);
    ASSERT_TRUE(text.ok());
    auto back = ParseXmlToDocument(*text);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(NormalizeText((*back)->ToEvents()),
              NormalizeText(book->ToEvents()));
  }
}

// --- structural-scan differential mode ------------------------------
//
// The tape tokenizer (StructuralIndex pre-scan) and the pre-tape
// byte-at-a-time loop (kept behind XmlParserOptions::legacy_tokenizer)
// must be observationally identical: same events, same error messages,
// event-for-event, on well-formed and hostile inputs alike, under any
// chunking. A desynchronized tape — a stray `<` in CDATA, a quote in a
// comment, a charref split across chunks — would show up here first.

/// Everything observable from one parse: the emitted event prefix
/// (deep-copied — the parser dies with this function) and the final
/// status rendering.
struct ParseOutcome {
  EventBuffer events;
  std::string status;
};

ParseOutcome ParseWithTokenizer(bool legacy, std::string_view xml,
                                const std::vector<size_t>& cuts,
                                size_t entity_cap) {
  ParseOutcome out;
  BufferingSink sink(&out.events);
  XmlParserOptions options;
  options.legacy_tokenizer = legacy;
  XmlParser parser(&sink, options);
  parser.SetMaxEntityExpansionBytes(entity_cap);
  Status status = Status::OK();
  size_t pos = 0;
  for (size_t cut : cuts) {
    if (!status.ok() || pos >= xml.size()) break;
    const size_t end = std::min(cut, xml.size());
    if (end <= pos) continue;
    status = parser.Feed(xml.substr(pos, end - pos));
    pos = end;
  }
  if (status.ok() && pos < xml.size()) status = parser.Feed(xml.substr(pos));
  if (status.ok()) status = parser.Finish();
  out.status = status.ToString();
  return out;
}

void ExpectTokenizersAgree(std::string_view xml,
                           const std::vector<size_t>& cuts,
                           size_t entity_cap = 0) {
  ParseOutcome tape = ParseWithTokenizer(false, xml, cuts, entity_cap);
  ParseOutcome legacy = ParseWithTokenizer(true, xml, cuts, entity_cap);
  EXPECT_EQ(tape.status, legacy.status) << "input: " << xml;
  EXPECT_TRUE(tape.events == legacy.events)
      << "input: " << xml << "\ntape  : "
      << EventStreamToString(tape.events.events())
      << "\nlegacy: " << EventStreamToString(legacy.events.events());
}

// Hand-picked desynchronization attempts: structural characters in
// contexts where they are not structural, tokens that look almost
// closed, and malformed tails.
const char* const kHostileInputs[] = {
    "<a><![CDATA[< not a tag <b> ]]&gt; ]]></a>",
    "<a><![CDATA[]]]></a>",
    "<a><![CDATA[]] ]]></a>",
    "<a><![CDATA[]]></a>",
    "<a><!-- quotes ' \" and <tags> and -- dashes --><b/></a>",
    "<a><!--></a>--><b/></a>",
    "<a><!---></a>",
    "<a b=\"x>y\" c='<d>'/>",
    "<a b=\"ends here>\"><c/></a>",
    "<a>&#955;&#x3BB;&amp;</a>",
    "<a>&#955</a>",
    "<a>&unknown;</a>",
    "<a>& lone</a>",
    "<a>text ]]> more</a>",
    "<?pi with <angle> brackets ?><a/>",
    "<a",
    "<a><b></a></b>",
    "<a/><b/>",
    "text outside",
    "<a>\n\nline\ncounting\n<b\n/></a>",
    "<!DOCTYPE a><a/>",
    "<a><![CDATA[",
    "<a><!-- unterminated",
    "",
    // Structural byte followed by its XOR-1 neighbor ('\"#', '<=',
    // '>?') — falsely flagged as structural by a borrow-based SWAR
    // matcher, which then corrupts every later tape offset.
    "<a href=\"#x\">t<b>text more</b></a>",
    "<a><!-- if x <= y or z >? --><b/></a>",
    "<a><![CDATA[\"#f\" a<=b c>?d]]>#</a>",
};

/// The whole-buffer cut plus every width-1/2/3 chunking of `input`.
std::vector<std::vector<size_t>> SmallChunkings(std::string_view input) {
  const size_t n = input.size();
  std::vector<std::vector<size_t>> chunkings = {{n}};
  for (size_t width : {1u, 2u, 3u}) {
    std::vector<size_t> cuts;
    for (size_t pos = width; pos < n + width; pos += width) {
      cuts.push_back(pos);
    }
    chunkings.push_back(std::move(cuts));
  }
  return chunkings;
}

TEST(XmlTokenizerDifferentialTest, HostileInputs) {
  for (const char* input : kHostileInputs) {
    for (const std::vector<size_t>& cuts : SmallChunkings(input)) {
      ExpectTokenizersAgree(input, cuts);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Multi-byte character references, split at every possible boundary.
constexpr std::string_view kCharrefDocument =
    "<a>&#955;&#x1F600;&amp;&quot;</a>";

TEST(XmlTokenizerDifferentialTest, SplitCharrefsAndEntityCaps) {
  // A cap low enough to trip mid-document — the failure line and
  // message must match between tokenizers.
  const std::string xml(kCharrefDocument);
  for (size_t cut = 1; cut < xml.size(); ++cut) {
    for (size_t cap : {0u, 1u, 3u, 100u}) {
      ExpectTokenizersAgree(xml, {cut, xml.size()}, cap);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlTokenizerDifferentialTest, RandomDocumentsRandomChunks) {
  Random rng(24680);
  DocGenOptions opts;
  opts.max_depth = 5;
  opts.text_prob = 0.6;
  opts.attr_prob = 0.4;
  for (int i = 0; i < 60; ++i) {
    auto doc = GenerateRandomDocument(&rng, opts);
    auto xml = DocumentToXml(*doc);
    ASSERT_TRUE(xml.ok());
    std::vector<size_t> cuts;
    size_t pos = 0;
    while (pos < xml->size()) {
      pos += 1 + rng.Uniform(13);
      cuts.push_back(pos);
    }
    ExpectTokenizersAgree(*xml, cuts);
    // Mutate one byte to something hostile and re-compare: the
    // tokenizers must also fail identically.
    std::string mutated = *xml;
    const char hostile[] = {'<', '>', '&', '"', '\'', '-', ']', '\n'};
    mutated[rng.Uniform(mutated.size())] =
        hostile[rng.Uniform(sizeof hostile)];
    ExpectTokenizersAgree(mutated, cuts);
    if (::testing::Test::HasFailure()) return;
  }
}

// --- count mode --------------------------------------------------------
//
// Each input again at the same chunking, switched to count mode at every
// event ordinal, on both tokenizers: the emitted prefix, the status and
// the measured profile must equal the full parse's (test_util.h).

/// `xml` split at `cuts` exactly as ParseWithTokenizer splits it.
std::vector<std::string_view> CutChunks(std::string_view xml,
                                        const std::vector<size_t>& cuts) {
  std::vector<std::string_view> chunks;
  size_t pos = 0;
  for (size_t cut : cuts) {
    if (pos >= xml.size()) break;
    const size_t end = std::min(cut, xml.size());
    if (end <= pos) continue;
    chunks.push_back(xml.substr(pos, end - pos));
    pos = end;
  }
  if (pos < xml.size()) chunks.push_back(xml.substr(pos));
  return chunks;
}

void ExpectCountModeAgrees(std::string_view xml,
                           const std::vector<size_t>& cuts,
                           size_t entity_cap = 0) {
  for (bool legacy : {false, true}) {
    testutil::ParseSetup setup;
    setup.legacy_tokenizer = legacy;
    setup.entity_cap = entity_cap;
    EXPECT_EQ(testutil::CountModeDisagreement(CutChunks(xml, cuts), setup),
              "")
        << "legacy=" << legacy << " cap=" << entity_cap << " input: " << xml;
  }
}

TEST(XmlTokenizerDifferentialTest, CountModeHostileInputs) {
  for (const char* input : kHostileInputs) {
    for (const std::vector<size_t>& cuts : SmallChunkings(input)) {
      ExpectCountModeAgrees(input, cuts);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlTokenizerDifferentialTest, CountModeSplitCharrefsAndEntityCaps) {
  for (size_t cut = 1; cut < kCharrefDocument.size(); ++cut) {
    for (size_t cap : {0u, 1u, 3u, 100u}) {
      ExpectCountModeAgrees(kCharrefDocument, {cut, kCharrefDocument.size()},
                            cap);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlTokenizerDifferentialTest, CountModeRandomDocumentsRandomChunks) {
  // The documents, cuts and mutations of RandomDocumentsRandomChunks.
  Random rng(24680);
  DocGenOptions opts;
  opts.max_depth = 5;
  opts.text_prob = 0.6;
  opts.attr_prob = 0.4;
  for (int i = 0; i < 60; ++i) {
    auto doc = GenerateRandomDocument(&rng, opts);
    auto xml = DocumentToXml(*doc);
    ASSERT_TRUE(xml.ok());
    std::vector<size_t> cuts;
    size_t pos = 0;
    while (pos < xml->size()) {
      pos += 1 + rng.Uniform(13);
      cuts.push_back(pos);
    }
    ExpectCountModeAgrees(*xml, cuts);
    std::string mutated = *xml;
    const char hostile[] = {'<', '>', '&', '"', '\'', '-', ']', '\n'};
    mutated[rng.Uniform(mutated.size())] =
        hostile[rng.Uniform(sizeof hostile)];
    ExpectCountModeAgrees(mutated, cuts);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlRoundTripFuzzTest, EscapingSurvivesHostileText) {
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* root = doc->root()->AddElement("r");
  root->AddAttribute("k", "a<b>&\"c'");
  root->AddText("x < y & z > w \"quoted\"");
  auto xml = DocumentToXml(*doc);
  ASSERT_TRUE(xml.ok());
  auto back = ParseXmlToDocument(*xml);
  ASSERT_TRUE(back.ok());
  const XmlNode* r = (*back)->root_element();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->children()[0]->text(), "a<b>&\"c'");
  EXPECT_EQ(r->StringValue(), "x < y & z > w \"quoted\"");
}

}  // namespace
}  // namespace xpstream
