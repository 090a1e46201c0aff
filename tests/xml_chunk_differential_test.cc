// Chunk-boundary differential test: feeding a document to the parser
// in fixed-size chunks must be observationally identical to feeding it
// whole — same events (after text-merge normalization the chunked path
// is allowed to split text runs), same error, same entity-cap failure
// point. Runs every checked-in corpus in tests/testdata plus an
// entity-dense synthetic document through chunk widths 1/2/3/7/64/4096,
// in both the default arena-backed mode and with a symbol table.
//
// The count-mode cases parse each input again at the same chunking and
// switch the parser to count mode at every event ordinal: the prefix,
// the status and the measured profile must equal the full parse's.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "test_util.h"
#include "xml/event.h"
#include "xml/parser.h"
#include "xml/symbol_table.h"

namespace xpstream {
namespace {

constexpr size_t kChunkWidths[] = {1, 2, 3, 7, 64, 4096};

/// Everything observable from one parse: the emitted events (owned —
/// the parser and its arena die with this function) and the final
/// status rendering.
struct ParseOutcome {
  EventBuffer events;
  std::string status;
};

/// Parses `xml` in fixed chunks of `width` bytes (0 = one whole-buffer
/// Feed). Stops feeding at the first error, like a real caller.
ParseOutcome ParseChunked(std::string_view xml, size_t width,
                          SymbolTable* symbols, size_t entity_cap) {
  ParseOutcome out;
  BufferingSink sink(&out.events);
  XmlParser parser(&sink, symbols);
  parser.SetMaxEntityExpansionBytes(entity_cap);
  Status status = Status::OK();
  if (width == 0) {
    status = parser.Feed(xml);
  } else {
    for (size_t pos = 0; status.ok() && pos < xml.size(); pos += width) {
      status = parser.Feed(xml.substr(pos, width));
    }
  }
  if (status.ok()) status = parser.Finish();
  out.status = status.ToString();
  return out;
}

/// Merges adjacent text events: the chunked parse may split one text
/// run at a chunk boundary, which is the one divergence the streaming
/// contract allows.
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

void ExpectChunkingInvariant(std::string_view xml, size_t entity_cap,
                             const std::string& label) {
  for (bool interned : {false, true}) {
    SymbolTable whole_symbols;
    ParseOutcome whole = ParseChunked(
        xml, 0, interned ? &whole_symbols : nullptr, entity_cap);
    const EventBuffer whole_norm = NormalizeText(whole.events.events());
    for (size_t width : kChunkWidths) {
      SymbolTable chunk_symbols;
      ParseOutcome chunked = ParseChunked(
          xml, width, interned ? &chunk_symbols : nullptr, entity_cap);
      EXPECT_EQ(chunked.status, whole.status)
          << label << " width=" << width << " interned=" << interned
          << " cap=" << entity_cap;
      EXPECT_TRUE(NormalizeText(chunked.events.events()) == whole_norm)
          << label << " width=" << width << " interned=" << interned
          << " cap=" << entity_cap << "\nwhole  : "
          << EventStreamToString(whole.events.events()) << "\nchunked: "
          << EventStreamToString(chunked.events.events());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// All documents in the checked-in corpora: whole-file fixtures plus
/// the one-document-per-line session fixtures.
std::vector<std::pair<std::string, std::string>> TestDataDocuments() {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const char* name : {"attrs.xml", "mixed.xml"}) {
    docs.emplace_back(name, testutil::LoadTestData(name));
  }
  for (const char* name : {"session_ab.xml", "session_prices.xml"}) {
    const auto lines = testutil::LoadTestDataLines(name);
    for (size_t i = 0; i < lines.size(); ++i) {
      docs.emplace_back(std::string(name) + ":" + std::to_string(i),
                        lines[i]);
    }
  }
  return docs;
}

TEST(XmlChunkDifferentialTest, TestDataCorporaAllWidths) {
  for (const auto& [label, xml] : TestDataDocuments()) {
    ExpectChunkingInvariant(xml, /*entity_cap=*/0, label);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlChunkDifferentialTest, TestDataCorporaUnderEntityCaps) {
  // Caps low enough to trip mid-document on the corpora that decode
  // references: the failure (or success) must be byte-for-byte the
  // same whether the reference arrived whole or split across chunks.
  for (const auto& [label, xml] : TestDataDocuments()) {
    for (size_t cap : {1u, 8u, 64u}) {
      ExpectChunkingInvariant(xml, cap, label);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(XmlChunkDifferentialTest, EntityDenseDocumentTripsCapIdentically) {
  // 40 references expanding to 1 byte each; caps planted before, on,
  // and after every interesting boundary. Guarantees the cap failure
  // path itself is chunk-invariant (the testdata corpora hold at most
  // one reference each).
  std::string xml = "<a>";
  for (int i = 0; i < 10; ++i) xml += "&amp;&#955;&lt;&#x1F600;";
  xml += "</a>";
  for (size_t cap : {1u, 2u, 5u, 9u, 40u, 1000u}) {
    ExpectChunkingInvariant(xml, cap, "entity-dense");
    if (::testing::Test::HasFailure()) return;
  }
  ExpectChunkingInvariant(xml, /*entity_cap=*/0, "entity-dense");
}

// Documents whose multi-byte tokens (CDATA fences, comments, charrefs,
// attribute quotes) land on every width-1/2/3 boundary by construction.
const char* const kStructuralInputs[] = {
    "<a><![CDATA[x]]y]]&gt;]]></a>",
    "<a><!-- - -- ->x--><b q='\"'/></a>",
    "<a longattr=\"v1\" b='v2'><c>t1</c>t2<d/></a>",
    "<?xml version=\"1.0\"?><r><s>&quot;&apos;</s></r>",
    // Structural bytes immediately followed by their XOR-1 neighbor
    // ('"#', '<=', '>?') — the pattern that defeats a borrow-based
    // SWAR matcher by falsely flagging the trailing byte.
    "<a href=\"#top\">t<b>text more</b></a>",
    "<a><!-- x <= y >? --><b q=\"#\"/>#</a>",
    "<a><![CDATA[a<=b >? \"#frag\"]]></a>",
};

TEST(XmlChunkDifferentialTest, StructuralTokensAcrossBoundaries) {
  // The spill/rebase path must reproduce the whole-buffer parse exactly.
  for (const char* input : kStructuralInputs) {
    ExpectChunkingInvariant(input, /*entity_cap=*/0, input);
    if (::testing::Test::HasFailure()) return;
  }
}

/// The count-mode differential over every chunk width, interned or not.
void ExpectCountModeAgrees(std::string_view xml, size_t entity_cap,
                           const std::string& label) {
  for (bool interned : {false, true}) {
    for (size_t width : kChunkWidths) {
      testutil::ParseSetup setup;
      setup.interned = interned;
      setup.entity_cap = entity_cap;
      EXPECT_EQ(testutil::CountModeDisagreement(
                    testutil::FixedChunks(xml, width), setup),
                "")
          << label << " width=" << width << " interned=" << interned
          << " cap=" << entity_cap;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(XmlChunkDifferentialTest, CountModeMatchesFullParseOnCorpora) {
  for (const auto& [label, xml] : TestDataDocuments()) {
    for (size_t cap : {0u, 1u, 8u, 64u}) {
      ExpectCountModeAgrees(xml, cap, label);
      if (::testing::Test::HasFailure()) return;
    }
  }
  std::string dense = "<a>";
  for (int i = 0; i < 10; ++i) dense += "&amp;&#955;&lt;&#x1F600;";
  dense += "</a>";
  for (size_t cap : {0u, 1u, 2u, 5u, 9u, 40u, 1000u}) {
    ExpectCountModeAgrees(dense, cap, "entity-dense");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(XmlChunkDifferentialTest, CountModeRejectsMalformedTails) {
  // Failures that arise after any switch point: the counted tail must
  // fail with the full parse's code, line and message.
  const char* inputs[] = {
      "<a><b>x</b><c>y</c><d/></a>",
      "<a><b/><c>\n</c>\n<d></a>",
      "<a><b/><c>&bogus;</c></a>",
      "<a><b/><c x=\"&#0;\"/></a>",
      "<a><b/><c x=\"1\" x2/></a>",
      "<a><b/><c x=1/></a>",
      "<a><b/><c x=\"1/></a>",
      "<a><b/><1c/></a>",
      "<a><b/></a>tail",
      "<a><b/></a><b/>",
      "<a><b/><!-- never closed </a>",
      "<a><b/><![CDATA[never closed</a>",
      "<a><b/><!DOCTYPE x></a>",
      "<a><b/><?pi</a>",
      "<a><b/></a><![CDATA[x]]>",
      "<a><b/><c></a>",
      "<a><b><c><d>deep</d></c></b></a>",
      "<a><b/><c>&amp;&lt;&#65;&#x42;</c><d y='&quot;'/></a>",
      "<a><b/>",
  };
  for (const char* input : inputs) {
    for (size_t cap : {0u, 2u}) {
      ExpectCountModeAgrees(input, cap, input);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(XmlChunkDifferentialTest, CountModeStructuralTokensAcrossBoundaries) {
  for (const char* input : kStructuralInputs) {
    ExpectCountModeAgrees(input, /*entity_cap=*/0, input);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace xpstream
