#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "test_util.h"
#include "xml/parser.h"
#include "xml/structural_index.h"
#include "xml/tree_builder.h"
#include "xml/writer.h"

namespace xpstream {
namespace {

std::string ParseToString(std::string_view xml) {
  auto events = ParseXmlToEvents(xml);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  if (!events.ok()) return "";
  return EventStreamToString(events->events());
}

TEST(XmlParserTest, SimpleDocument) {
  EXPECT_EQ(ParseToString("<a><b>hi</b></a>"), "<$><a><b>hi</b></a></$>");
}

TEST(XmlParserTest, SelfClosingTag) {
  EXPECT_EQ(ParseToString("<a><b/></a>"), "<$><a><b></b></a></$>");
}

TEST(XmlParserTest, Attributes) {
  EXPECT_EQ(ParseToString("<a x=\"1\" y='two'/>"),
            "<$><a>@x=\"1\"@y=\"two\"</a></$>");
}

TEST(XmlParserTest, EntityDecoding) {
  EXPECT_EQ(ParseToString("<a>&lt;&gt;&amp;&quot;&apos;</a>"),
            "<$><a><>&\"'</a></$>");
}

TEST(XmlParserTest, CharacterReferences) {
  EXPECT_EQ(ParseToString("<a>&#65;&#x42;</a>"), "<$><a>AB</a></$>");
}

TEST(XmlParserTest, Utf8CharacterReference) {
  auto events = ParseXmlToEvents("<a>&#955;</a>");  // greek lambda
  ASSERT_TRUE(events.ok());
  EXPECT_EQ((*events)[2].text, "\xCE\xBB");
}

TEST(XmlParserTest, CommentsSkipped) {
  EXPECT_EQ(ParseToString("<a><!-- hello <b> --><c/></a>"),
            "<$><a><c></c></a></$>");
}

TEST(XmlParserTest, XmlDeclarationSkipped) {
  EXPECT_EQ(ParseToString("<?xml version=\"1.0\"?><a/>"), "<$><a></a></$>");
}

TEST(XmlParserTest, CdataSection) {
  EXPECT_EQ(ParseToString("<a><![CDATA[<raw>&amp;]]></a>"),
            "<$><a><raw>&amp;</a></$>");
}

TEST(XmlParserTest, WhitespaceOutsideRootAllowed) {
  EXPECT_EQ(ParseToString("  <a/>  \n"), "<$><a></a></$>");
}

TEST(XmlParserTest, ChunkedFeedingAnySplit) {
  const std::string xml = testutil::LoadTestData("mixed.xml");
  auto whole = ParseXmlToEvents(xml);
  ASSERT_TRUE(whole.ok());
  for (size_t split = 1; split < xml.size(); ++split) {
    EventStream events;
    CollectingSink sink(&events);
    XmlParser parser(&sink);
    ASSERT_TRUE(parser.Feed(xml.substr(0, split)).ok()) << split;
    ASSERT_TRUE(parser.Feed(xml.substr(split)).ok()) << split;
    ASSERT_TRUE(parser.Finish().ok()) << split;
    EXPECT_EQ(events, *whole) << "split at " << split;
  }
}

TEST(XmlParserTest, ErrorMismatchedTags) {
  EXPECT_FALSE(ParseXmlToEvents("<a><b></a></b>").ok());
}

TEST(XmlParserTest, ErrorUnclosedElement) {
  EXPECT_FALSE(ParseXmlToEvents("<a><b>").ok());
}

TEST(XmlParserTest, ErrorTextOutsideRoot) {
  EXPECT_FALSE(ParseXmlToEvents("hello<a/>").ok());
}

TEST(XmlParserTest, ErrorContentAfterRoot) {
  EXPECT_FALSE(ParseXmlToEvents("<a/><b/>").ok());
}

TEST(XmlParserTest, ErrorUnknownEntity) {
  EXPECT_FALSE(ParseXmlToEvents("<a>&nope;</a>").ok());
}

TEST(XmlParserTest, ErrorBadAttributeSyntax) {
  EXPECT_FALSE(ParseXmlToEvents("<a x=1/>").ok());
  EXPECT_FALSE(ParseXmlToEvents("<a x></a>").ok());
}

TEST(XmlParserTest, ErrorDtdUnsupported) {
  EXPECT_FALSE(ParseXmlToEvents("<!DOCTYPE a><a/>").ok());
}

TEST(XmlParserTest, ErrorEmptyInput) {
  EXPECT_FALSE(ParseXmlToEvents("").ok());
}

TEST(XmlParserTest, ErrorInvalidName) {
  EXPECT_FALSE(ParseXmlToEvents("<1a/>").ok());
}

TEST(XmlParserTest, EntityExpansionCapEnforced) {
  // Six charrefs decode one byte each; a 4-byte budget fails the fifth.
  EventStream events;
  CollectingSink sink(&events);
  XmlParser parser(&sink);
  parser.SetMaxEntityExpansionBytes(4);
  Status status = parser.Feed("<a>&#65;&#66;&#67;&#68;&#69;&#70;</a>");
  if (status.ok()) status = parser.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("entity expansion"), std::string::npos)
      << status.ToString();
}

TEST(XmlParserTest, EntityExpansionCapIgnoresPlainText) {
  // Only decoded entity bytes count against the budget — plain text of
  // any length is free, and an under-budget document parses normally.
  EventStream events;
  CollectingSink sink(&events);
  XmlParser parser(&sink);
  parser.SetMaxEntityExpansionBytes(4);
  const std::string xml = "<a>" + std::string(4096, 'x') + "&#65;&#66;</a>";
  ASSERT_TRUE(parser.Feed(xml).ok());
  ASSERT_TRUE(parser.Finish().ok());
}

TEST(XmlParserTest, EntityExpansionUnlimitedByDefault) {
  std::string xml = "<a>";
  for (int i = 0; i < 256; ++i) xml += "&amp;";
  xml += "</a>";
  EXPECT_TRUE(ParseXmlToEvents(xml).ok());
}

TEST(XmlWriterTest, RoundTripThroughWriter) {
  const std::string xml = testutil::LoadTestData("attrs.xml");
  auto events = ParseXmlToEvents(xml);
  ASSERT_TRUE(events.ok());
  auto text = EventsToXml(events->events());
  ASSERT_TRUE(text.ok());
  auto reparsed = ParseXmlToEvents(*text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, *events);
}

TEST(XmlWriterTest, IndentedOutputReparses) {
  auto events = ParseXmlToEvents("<a><b><c/></b><d>t</d></a>");
  ASSERT_TRUE(events.ok());
  WriterOptions options;
  options.indent = true;
  auto text = EventsToXml(events->events(), options);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find('\n'), std::string::npos);
  // Reparse and compare element structure (whitespace text may differ).
  auto doc = ParseXmlToDocument(*text);
  ASSERT_TRUE(doc.ok());
}

TEST(XmlWriterTest, EscapesSpecialCharacters) {
  EventStream events = {Event::StartDocument(), Event::StartElement("a"),
                        Event::Text("<&>"), Event::EndElement("a"),
                        Event::EndDocument()};
  auto text = EventsToXml(events);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "<a>&lt;&amp;&gt;</a>");
}

TEST(StructuralIndexTest, XorOneNeighborsAreNotFlagged) {
  // '#' == '"'^1, '=' == '<'^1, '?' == '>'^1, '\v' == '\n'^1,
  // '\'' == '&'^1. A borrow-based SWAR zero-detector falsely flagged
  // each of these when it directly followed its neighbor, and the
  // resulting kClass[b] - 1 underflow poisoned the tape with a huge
  // offset. The 16 bytes here keep every such pair inside one vector
  // step (not the scalar tail). Quotes are not on the tape, so '"', '#'
  // and '\'' yield no entry.
  const std::string buf = "z\"#q<=w>?\n\ve&'xx";
  ASSERT_EQ(buf.size(), 16u);
  StructuralIndex index;
  index.Scan(buf.data(), 0, buf.size());
  const std::vector<std::pair<size_t, StructuralKind>> expected = {
      {4, kStructLt}, {7, kStructGt}, {9, kStructNl}, {12, kStructAmp}};
  ASSERT_EQ(index.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(StructuralIndex::OffsetOf(index.entry(i)), expected[i].first)
        << "entry " << i;
    EXPECT_EQ(StructuralIndex::KindOf(index.entry(i)), expected[i].second)
        << "entry " << i;
  }
}

/// The pre-scan's specification, one byte at a time: the tape Scan(data,
/// begin, end) must append.
std::vector<uint32_t> ReferenceTape(const char* data, size_t begin,
                                    size_t end) {
  std::vector<uint32_t> tape;
  for (size_t i = begin; i < end; ++i) {
    uint32_t kind = 0;
    switch (data[i]) {
      case '<':
        kind = kStructLt;
        break;
      case '>':
        kind = kStructGt;
        break;
      case '&':
        kind = kStructAmp;
        break;
      case '\n':
        kind = kStructNl;
        break;
      default:
        continue;
    }
    tape.push_back(static_cast<uint32_t>(i << 3) | kind);
  }
  return tape;
}

/// A dense mix of the structural bytes, their XOR-1 neighbours, the
/// quotes, and bytes >= 0x80 (among them each structural byte with its
/// high bit set).
std::unique_ptr<char[]> DenseBytes(size_t size, Random* rng) {
  static constexpr unsigned char kAlphabet[] = {
      '<',  '>',  '&',  '\n', '=',  '?',  '\'', '\v', '"',
      '#',  'a',  ' ',  0x80, 0xBC, 0xBE, 0xA6, 0x8A, 0xFF};
  // Exactly `size` bytes on the heap: ASan reports a read past the end,
  // which a std::string's slack would hide.
  std::unique_ptr<char[]> bytes(new char[size]);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>(kAlphabet[rng->Uniform(sizeof(kAlphabet))]);
  }
  return bytes;
}

TEST(StructuralIndexTest, ScanMatchesByteAtATimeReference) {
  Random rng(20041);
  for (size_t length = 0; length <= 100; ++length) {
    for (size_t begin = 0; begin <= 17; ++begin) {
      const size_t end = begin + length;
      const std::unique_ptr<char[]> data = DenseBytes(end, &rng);
      StructuralIndex whole;
      whole.Scan(data.get(), begin, end);
      ASSERT_EQ(whole.tape(), ReferenceTape(data.get(), begin, end))
          << "length " << length << " begin " << begin;
      // Split ranges append to one tape, as a spilling parser does.
      const size_t mid = begin + rng.Uniform(length + 1);
      StructuralIndex split;
      split.Scan(data.get(), begin, mid);
      split.Scan(data.get(), mid, end);
      ASSERT_EQ(split.tape(), whole.tape())
          << "length " << length << " begin " << begin << " split " << mid;
    }
  }
}

TEST(StructuralIndexTest, RebaseFromCursorDropsAndShifts) {
  Random rng(20042);
  for (size_t size : {0, 1, 15, 16, 17, 100, 257}) {
    const std::unique_ptr<char[]> data = DenseBytes(size, &rng);
    StructuralIndex scanned;
    scanned.Scan(data.get(), 0, size);
    for (size_t cut = 0; cut <= size; ++cut) {
      // The cursor is the first entry at or past the cut, where the
      // tokenizer's cursor sits whenever the parser compacts.
      size_t cursor = 0;
      std::vector<uint32_t> expected;
      for (uint32_t entry : scanned.tape()) {
        const size_t offset = StructuralIndex::OffsetOf(entry);
        if (offset < cut) {
          ++cursor;
          continue;
        }
        expected.push_back(static_cast<uint32_t>((offset - cut) << 3) |
                           StructuralIndex::KindOf(entry));
      }
      StructuralIndex index = scanned;
      index.Rebase(cut, cursor);
      ASSERT_EQ(index.tape(), expected) << "size " << size << " cut " << cut;
    }
  }
}

/// Merges adjacent text events — the one divergence a chunked feed is
/// allowed relative to a whole-buffer parse.
EventBuffer MergeAdjacentText(const EventStream& events) {
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

TEST(XmlParserTest, HashAfterQuoteAcrossFeeds) {
  // Regression for the SWAR borrow bug end to end: the bogus tape entry
  // for '#' (offset wrapped to ~2^29 by the kClass underflow) survived
  // Rebase() after the first Feed and sent the tokenizer reading far
  // past the window on the second.
  EventBuffer events;
  BufferingSink sink(&events);
  XmlParser parser(&sink);
  ASSERT_TRUE(parser.Feed("<a href=\"#x\">t<b>text").ok());
  ASSERT_TRUE(parser.Feed(" more</b></a>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  auto whole = ParseXmlToEvents("<a href=\"#x\">t<b>text more</b></a>");
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(MergeAdjacentText(events.events()) ==
              MergeAdjacentText(whole->events()))
      << "feeds : " << EventStreamToString(events.events())
      << "\nwhole : " << EventStreamToString(whole->events());
}

}  // namespace
}  // namespace xpstream
