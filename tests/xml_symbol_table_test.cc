// Tests for xml/symbol_table.h — the shared name-interning layer the
// event pipeline dispatches on. Covers intern/resolve round-trips,
// growth across rehashes, collision-heavy adversarial name sets, the
// parser integration (events carry symbols; end tags reuse the open
// stack's symbol), and the decoded-payload boundary (attribute values
// are entity-decoded text, not symbols; names intern verbatim).

#include "xml/symbol_table.h"

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "xml/event.h"
#include "xml/parser.h"

namespace xpstream {
namespace {

TEST(SymbolTableTest, InternResolveRoundTrip) {
  SymbolTable table;
  EXPECT_EQ(table.size(), 0u);
  Symbol a = table.Intern("alpha");
  Symbol b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.NameOf(b), "beta");
  // Re-interning is idempotent and allocates no new id.
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, IdsAreDenseInFirstInternOrder) {
  SymbolTable table;
  EXPECT_EQ(table.Intern("x"), 0u);
  EXPECT_EQ(table.Intern("y"), 1u);
  EXPECT_EQ(table.Intern("x"), 0u);
  EXPECT_EQ(table.Intern("z"), 2u);
}

TEST(SymbolTableTest, FindNeverInterns) {
  SymbolTable table;
  EXPECT_EQ(table.Find("ghost"), kNoSymbol);
  EXPECT_EQ(table.size(), 0u);
  Symbol a = table.Intern("real");
  EXPECT_EQ(table.Find("real"), a);
  EXPECT_EQ(table.Find("ghost"), kNoSymbol);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, EmptyAndOddNamesAreDistinct) {
  SymbolTable table;
  Symbol empty = table.Intern("");
  Symbol space = table.Intern(" ");
  Symbol star = table.Intern("*");
  EXPECT_NE(empty, space);
  EXPECT_NE(space, star);
  EXPECT_EQ(table.NameOf(empty), "");
  EXPECT_EQ(table.NameOf(star), "*");
}

TEST(SymbolTableTest, ViewsStayValidAcrossGrowth) {
  SymbolTable table;
  // Capture early views, then force many rehash/growth cycles.
  Symbol first = table.Intern("first-name");
  std::string_view first_view = table.NameOf(first);
  for (int i = 0; i < 5000; ++i) {
    table.Intern("n" + std::to_string(i));
  }
  EXPECT_EQ(first_view, "first-name");          // deque storage never moves
  EXPECT_EQ(table.NameOf(first), "first-name");
  EXPECT_EQ(table.Intern("first-name"), first);
  EXPECT_EQ(table.size(), 5001u);
}

TEST(SymbolTableTest, CollisionHeavyAdversarialNames) {
  // Thousands of names sharing long common prefixes/suffixes and many
  // length-1 differences: every id must round-trip and re-resolve to
  // itself through the growth cycles the volume forces.
  SymbolTable table;
  std::vector<std::string> names;
  const std::string stem(40, 'a');
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      names.push_back(stem + std::to_string(i) + "." + std::to_string(j) +
                      stem);
    }
  }
  std::vector<Symbol> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) ids.push_back(table.Intern(name));
  std::set<Symbol> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.NameOf(ids[i]), names[i]);
    EXPECT_EQ(table.Intern(names[i]), ids[i]);
    EXPECT_EQ(table.Find(names[i]), ids[i]);
  }
}

TEST(SymbolTableTest, FootprintGrowsWithContent) {
  SymbolTable table;
  const size_t empty = table.FootprintBytes();
  for (int i = 0; i < 100; ++i) table.Intern("name" + std::to_string(i));
  EXPECT_GT(table.FootprintBytes(), empty);
}

// ---- parser integration --------------------------------------------

TEST(SymbolTableParserTest, ParserInternsNamesIntoTheTable) {
  SymbolTable table;
  auto events = ParseXmlToEvents(
      "<book id=\"1\"><title>streams</title><title>again</title></book>",
      &table);
  ASSERT_TRUE(events.ok());
  // Distinct names: book, id, title.
  EXPECT_EQ(table.size(), 3u);
  const Symbol book = table.Find("book");
  const Symbol title = table.Find("title");
  const Symbol id = table.Find("id");
  ASSERT_NE(book, kNoSymbol);
  ASSERT_NE(title, kNoSymbol);
  ASSERT_NE(id, kNoSymbol);
  size_t title_events = 0;
  for (const Event& e : *events) {
    if (e.HasName()) {
      ASSERT_NE(e.name_sym, kNoSymbol) << e.ToString();
      EXPECT_EQ(table.NameOf(e.name_sym), e.name) << e.ToString();
      title_events += e.name_sym == title ? 1 : 0;
    } else {
      EXPECT_EQ(e.name_sym, kNoSymbol) << e.ToString();
    }
  }
  // <title>…</title> twice: both start and end events carry the symbol.
  EXPECT_EQ(title_events, 4u);
}

TEST(SymbolTableParserTest, EndTagsReuseTheStartTagSymbol) {
  SymbolTable table;
  auto events = ParseXmlToEvents("<a><b/><b></b></a>", &table);
  ASSERT_TRUE(events.ok());
  Symbol open_b = kNoSymbol;
  for (const Event& e : *events) {
    if (e.type == EventType::kStartElement && e.name == "b") {
      open_b = e.name_sym;
    }
    if (e.type == EventType::kEndElement && e.name == "b") {
      EXPECT_EQ(e.name_sym, open_b);
    }
  }
  EXPECT_NE(open_b, kNoSymbol);
}

TEST(SymbolTableParserTest, WithoutTableEventsAreUnsymbolized) {
  auto events = ParseXmlToEvents("<a><b/></a>");
  ASSERT_TRUE(events.ok());
  for (const Event& e : *events) EXPECT_EQ(e.name_sym, kNoSymbol);
}

TEST(SymbolTableParserTest, EntityDecodedPayloadsDoNotTouchNames) {
  // Attribute values and text are entity-decoded payload; names intern
  // verbatim. The decoded value must not leak into the table.
  SymbolTable table;
  auto events = ParseXmlToEvents(
      "<doc attr=\"&lt;x&gt;\">&amp;&#65;</doc>", &table);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(table.size(), 2u);  // doc, attr
  EXPECT_EQ(table.Find("<x>"), kNoSymbol);
  EXPECT_EQ(table.Find("&A"), kNoSymbol);
  for (const Event& e : *events) {
    if (e.type == EventType::kAttribute) {
      EXPECT_EQ(e.text, "<x>");
      EXPECT_EQ(table.NameOf(e.name_sym), "attr");
    }
    if (e.type == EventType::kText) {
      EXPECT_EQ(e.text, "&A");
    }
  }
}

TEST(SymbolTableParserTest, SymbolsAreStableAcrossDocuments) {
  // One table serving a document stream: the same names resolve to the
  // same ids in every document (subscriptions resolve their node tests
  // once, at Subscribe, and compare ids in every later document).
  SymbolTable table;
  auto first = ParseXmlToEvents("<a><b/></a>", &table);
  ASSERT_TRUE(first.ok());
  const Symbol a = table.Find("a");
  const Symbol b = table.Find("b");
  auto second = ParseXmlToEvents("<b><a/><c/></b>", &table);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(table.Find("a"), a);
  EXPECT_EQ(table.Find("b"), b);
  EXPECT_EQ(table.size(), 3u);
}

TEST(SymbolTableEventTest, EqualityIgnoresTheSymbolCache) {
  // name_sym is a cache relative to a table, not part of the value:
  // streams parsed with and without a table compare equal.
  SymbolTable table;
  auto with = ParseXmlToEvents("<a x=\"1\">t</a>", &table);
  auto without = ParseXmlToEvents("<a x=\"1\">t</a>");
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(*with, *without);
}

TEST(SymbolTableEventTest, ResolveEventNameVerifiesCacheThenInterns) {
  SymbolTable table;
  // A cached symbol that checks out against the table is used as-is.
  const Symbol cached = table.Intern("cached");
  EXPECT_EQ(ResolveEventName(Event::StartElement("cached", cached), &table),
            cached);
  EXPECT_EQ(table.size(), 1u);
  // A symbol minted by some *other* table — naming a different string,
  // or out of range entirely — is not trusted: the name re-interns, so
  // verdicts never depend on a foreign id.
  const Symbol other =
      ResolveEventName(Event::StartElement("other", cached), &table);
  EXPECT_NE(other, cached);
  EXPECT_EQ(table.NameOf(other), "other");
  const Symbol far =
      ResolveEventName(Event::StartElement("far", 12345), &table);
  EXPECT_EQ(table.NameOf(far), "far");
  // Unsymbolized names intern; nameless events resolve to kNoSymbol.
  const Symbol fresh =
      ResolveEventName(Event::StartElement("fresh"), &table);
  EXPECT_EQ(table.NameOf(fresh), "fresh");
  EXPECT_EQ(ResolveEventName(Event::Text("payload"), &table), kNoSymbol);
}

}  // namespace
}  // namespace xpstream
