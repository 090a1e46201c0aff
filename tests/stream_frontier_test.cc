#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stream/frontier_filter.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

struct Runner {
  std::unique_ptr<Query> query;
  std::unique_ptr<FrontierFilter> filter;
};

Runner Make(const std::string& text) {
  Runner r;
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  r.query = std::move(q).value();
  auto f = FrontierFilter::Create(r.query.get());
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  r.filter = std::move(f).value();
  return r;
}

bool Filter(const std::string& query_text, const std::string& xml) {
  Runner r = Make(query_text);
  auto events = ParseXmlToEvents(xml);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  auto verdict = RunFilter(r.filter.get(), events->events());
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
  return verdict.ok() && *verdict;
}

TEST(FrontierFilterTest, SimplePaths) {
  EXPECT_TRUE(Filter("/a/b", "<a><b/></a>"));
  EXPECT_FALSE(Filter("/a/b", "<a><c/></a>"));
  EXPECT_FALSE(Filter("/a/b", "<a><x><b/></x></a>"));
  EXPECT_TRUE(Filter("/a//b", "<a><x><b/></x></a>"));
  EXPECT_TRUE(Filter("//b", "<a><x><b/></x></a>"));
  EXPECT_FALSE(Filter("//b", "<a><x/></a>"));
}

TEST(FrontierFilterTest, Predicates) {
  EXPECT_TRUE(Filter("/a[b and c]", "<a><b/><c/></a>"));
  EXPECT_FALSE(Filter("/a[b and c]", "<a><b/></a>"));
  EXPECT_TRUE(Filter("/a[b > 5]", "<a><b>6</b></a>"));
  EXPECT_FALSE(Filter("/a[b > 5]", "<a><b>5</b></a>"));
  EXPECT_TRUE(Filter("/a[b = \"xy\"]", "<a><b>xy</b></a>"));
  EXPECT_TRUE(Filter("/a[contains(b, \"ell\")]", "<a><b>hello</b></a>"));
  EXPECT_FALSE(Filter("/a[contains(b, \"zz\")]", "<a><b>hello</b></a>"));
}

TEST(FrontierFilterTest, PaperTheorem42Documents) {
  const char* q = "/a[c[.//e and f] and b > 5]";
  EXPECT_TRUE(Filter(q, "<a><c><e/><f/></c><b>6</b></a>"));
  EXPECT_TRUE(Filter(q, "<a><b>6</b><c><f/><e/></c></a>"));
  EXPECT_FALSE(Filter(q, "<a><b>6</b><c><f/><f/></c></a>"));
  EXPECT_FALSE(Filter(q, "<a><c><e/><f/></c><b>5</b></a>"));
}

TEST(FrontierFilterTest, RecursiveDocuments) {
  EXPECT_TRUE(Filter("//a[b and c]", "<a><b/><a/><c/></a>"));
  EXPECT_TRUE(Filter("//a[b and c]", "<a><b/><a><b/><a/><c/></a></a>"));
  EXPECT_FALSE(Filter("//a[b and c]", "<a><b/><a><c/></a></a>"));
  // The contamination regression from the design notes: //a[.//a and c]
  // on <a><a><c/></a></a> must NOT match (outer lacks c, inner lacks a).
  EXPECT_FALSE(Filter("//a[.//a and c]", "<a><a><c/></a></a>"));
  EXPECT_TRUE(Filter("//a[.//a and c]", "<a><a/><c/></a>"));
}

TEST(FrontierFilterTest, DescendantLeafUnderRecursion) {
  EXPECT_TRUE(Filter("//a[.//b]", "<a><a><b/></a></a>"));
  EXPECT_TRUE(Filter("/a[.//b > 3]", "<a><x><b>4</b></x></a>"));
  EXPECT_FALSE(Filter("/a[.//b > 3]", "<a><x><b>2</b></x></a>"));
  // Nested value captures for one descendant-axis leaf.
  EXPECT_TRUE(Filter("/a[.//b = 7]", "<a><b>1<b>7</b></b></a>"));
  EXPECT_TRUE(Filter("/a[.//b = 17]", "<a><b>1<b>7</b></b></a>"));
}

TEST(FrontierFilterTest, WildcardSteps) {
  EXPECT_TRUE(Filter("/a/*/c", "<a><b><c/></b></a>"));
  EXPECT_FALSE(Filter("/a/*/c", "<a><c/></a>"));
  EXPECT_TRUE(Filter("/a[*/b > 5]", "<a><x><b>7</b></x></a>"));
}

TEST(FrontierFilterTest, Attributes) {
  EXPECT_TRUE(Filter("/a/@id", "<a id=\"1\"/>"));
  EXPECT_FALSE(Filter("/a/@id", "<a x=\"1\"/>"));
  EXPECT_TRUE(Filter("/a[@id = 7]/b", "<a id=\"7\"><b/></a>"));
  EXPECT_FALSE(Filter("/a[@id = 7]/b", "<a id=\"8\"><b/></a>"));
  EXPECT_TRUE(Filter("//b[@k = \"v\"]", "<a><b k=\"v\"/></a>"));
}

TEST(FrontierFilterTest, StringValueSpansSubtree) {
  EXPECT_TRUE(Filter("/a[b = 17]", "<a><b>1<x>7</x></b></a>"));
  EXPECT_FALSE(Filter("/a[b = 1]", "<a><b>1<x>7</x></b></a>"));
}

TEST(FrontierFilterTest, SiblingRetry) {
  // A failing first candidate must not block a later sibling match.
  EXPECT_TRUE(Filter("/a/b[c]", "<a><b/><b><c/></b></a>"));
  EXPECT_TRUE(Filter("/a[b > 5]", "<a><b>1</b><b>9</b></a>"));
  EXPECT_TRUE(Filter("/a[b[c and d]]",
                     "<a><b><c/></b><b><c/><d/></b></a>"));
}

/// The frontier table after each event of `xml`, in table order.
std::vector<std::string> Trace(Runner* r, const std::string& xml) {
  auto events = ParseXmlToEvents(xml);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  r->filter->EnableTrace();
  auto verdict = RunFilter(r->filter.get(), events->events());
  EXPECT_TRUE(verdict.ok() && *verdict);
  return r->filter->trace();
}

TEST(FrontierFilterTest, Fig22Example) {
  // Paper Fig. 22: query /a[c[.//e and f] and b] on the depicted
  // document; the run matches, and the frontier never exceeds 3 records
  // beyond the root bookkeeping. The table, record by record in table
  // order, is the figure's.
  Runner r = Make("/a[c[.//e and f] and b]");
  const std::vector<std::string> expected = {
      "<$> level=1 frontier=[(0,$,0) (1,a,0)]",
      "<a> level=2 frontier=[(0,$,0) (2,c,0) (2,b,0)]",
      "<c> level=3 frontier=[(0,$,0) (2,b,0) (3,e,0) (3,f,0)]",
      "<d> level=4 frontier=[(0,$,0) (2,b,0) (3,e,0) (3,f,0)]",
      "<e> level=5 frontier=[(0,$,0) (2,b,0) (3,e,0) (3,f,0)]",
      "</e> level=4 frontier=[(0,$,0) (2,b,0) (3,e,1) (3,f,0)]",
      "</d> level=3 frontier=[(0,$,0) (2,b,0) (3,e,1) (3,f,0)]",
      "<f> level=4 frontier=[(0,$,0) (2,b,0) (3,e,1) (3,f,0)]",
      "</f> level=3 frontier=[(0,$,0) (2,b,0) (3,e,1) (3,f,1)]",
      "</c> level=2 frontier=[(0,$,0) (2,b,0) (2,c,1)]",
      "<c> level=3 frontier=[(0,$,0) (2,b,0) (2,c,1)]",
      "</c> level=2 frontier=[(0,$,0) (2,b,0) (2,c,1)]",
      "<b> level=3 frontier=[(0,$,0) (2,b,0) (2,c,1)]",
      "</b> level=2 frontier=[(0,$,0) (2,b,1) (2,c,1)]",
      "</a> level=1 frontier=[(0,$,0) (1,a,1)]",
      "</$> level=0 frontier=[(0,$,1)]",
  };
  EXPECT_EQ(Trace(&r, "<a><c><d><e/></d><f/></c><c/><b/></a>"), expected);
  // FS(Q) = 3; the table additionally holds the root record and, while
  // the a-element is open, its expanded children — peak stays <= 5.
  EXPECT_LE(r.filter->stats().table_entries().peak(), 5u);
}

TEST(FrontierFilterTest, ForwardedMessageTrace) {
  // A message forwarded three deep: the descendant-axis msg record
  // expands at every level, so the table holds one run of records per
  // open envelope, in level order.
  Runner r = Make("//msg[header/priority > 3 and body]");
  const std::vector<std::string> expected = {
      "<$> level=1 frontier=[(0,$,0) (1,msg,0)]",
      "<feed> level=2 frontier=[(0,$,0) (1,msg,0)]",
      "<msg> level=3 frontier=[(0,$,0) (1,msg,0) (3,header,0) (3,body,0)]",
      "<header> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,priority,0)]",
      "<from> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,priority,0)]",
      "ann level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,priority,0)]",
      "</from> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,priority,0)]",
      "<priority> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) "
      "(4,priority,0)]",
      "5 level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,priority,0)]",
      "</priority> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) "
      "(4,priority,1)]",
      "</header> level=3 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1)]",
      "<msg> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,header,0) (4,body,0)]",
      "<header> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "<from> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "bob level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "</from> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "<priority> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "2 level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (5,priority,0)]",
      "</priority> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) "
      "(3,header,1) (4,body,0) (5,priority,0)]",
      "</header> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0)]",
      "<msg> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,header,0) (5,body,0)]",
      "<header> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "<from> level=7 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "cy level=7 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "</from> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "<priority> level=7 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "4 level=7 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (6,priority,0)]",
      "</priority> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) "
      "(3,header,1) (4,body,0) (4,header,0) (5,body,0) (6,priority,1)]",
      "</header> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (5,header,1)]",
      "<body> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (5,header,1)]",
      "hi level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,0) (5,header,1)]",
      "</body> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0) (5,body,1) (5,header,1)]",
      "</msg> level=4 frontier=[(0,$,0) (1,msg,1) (3,body,0) (3,header,1) "
      "(4,body,0) (4,header,0)]",
      "</msg> level=3 frontier=[(0,$,0) (1,msg,1) (3,body,0) (3,header,1)]",
      "</msg> level=2 frontier=[(0,$,0) (1,msg,1)]",
      "</feed> level=1 frontier=[(0,$,0) (1,msg,1)]",
      "</$> level=0 frontier=[(0,$,1)]",
  };
  EXPECT_EQ(Trace(&r,
                  "<feed><msg><header><from>ann</from><priority>5</priority>"
                  "</header><msg><header><from>bob</from>"
                  "<priority>2</priority></header><msg><header>"
                  "<from>cy</from><priority>4</priority></header>"
                  "<body>hi</body></msg></msg></msg></feed>"),
            expected);
}

TEST(FrontierFilterTest, CandidateOrderAcrossLevels) {
  // At the middle envelope's start tag two records expand: the
  // descendant-axis msg record at level 1 and the child-axis msg record
  // at level 3, the current level. A full scan meets them in that table
  // order, so msg and body (level 4) are appended before header; the
  // indexed candidate scan must visit them in the same order.
  Runner r = Make("//msg[msg/header and body]");
  const std::vector<std::string> expected = {
      "<$> level=1 frontier=[(0,$,0) (1,msg,0)]",
      "<feed> level=2 frontier=[(0,$,0) (1,msg,0)]",
      "<msg> level=3 frontier=[(0,$,0) (1,msg,0) (3,msg,0) (3,body,0)]",
      "<header> level=4 frontier=[(0,$,0) (1,msg,0) (3,msg,0) (3,body,0)]",
      "</header> level=3 frontier=[(0,$,0) (1,msg,0) (3,msg,0) (3,body,0)]",
      "<msg> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,msg,0) "
      "(4,body,0) (4,header,0)]",
      "<header> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,msg,0) "
      "(4,body,0) (4,header,0)]",
      "</header> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,msg,0) "
      "(4,body,0) (4,header,1)]",
      "<msg> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (5,msg,0) (5,body,0) (5,header,0)]",
      "<header> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (5,msg,0) (5,body,0) (5,header,0)]",
      "</header> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (5,msg,0) (5,body,0) (5,header,1)]",
      "<body> level=6 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (5,msg,0) (5,body,0) (5,header,1)]",
      "</body> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (5,msg,0) (5,body,1) (5,header,1)]",
      "</msg> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (4,msg,1)]",
      "<body> level=5 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,0) "
      "(4,header,1) (4,msg,1)]",
      "</body> level=4 frontier=[(0,$,0) (1,msg,0) (3,body,0) (4,body,1) "
      "(4,header,1) (4,msg,1)]",
      "</msg> level=3 frontier=[(0,$,0) (1,msg,1) (3,body,0) (3,msg,1)]",
      "</msg> level=2 frontier=[(0,$,0) (1,msg,1)]",
      "</feed> level=1 frontier=[(0,$,0) (1,msg,1)]",
      "</$> level=0 frontier=[(0,$,1)]",
  };
  EXPECT_EQ(Trace(&r,
                  "<feed><msg><header/><msg><header/><msg><header/><body/>"
                  "</msg><body/></msg></msg></feed>"),
            expected);
}

TEST(FrontierFilterTest, UnsupportedQueriesRejected) {
  auto q1 = ParseQuery("/a[b or c]");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(FrontierFilter::Create(q1->get()).ok());
  auto q2 = ParseQuery("/a[b = c]");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(FrontierFilter::Create(q2->get()).ok());
  auto q3 = ParseQuery("/a[not(b)]");
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE(FrontierFilter::Create(q3->get()).ok());
}

TEST(FrontierFilterTest, MemoryIndependentOfDocumentWidth) {
  // Streaming over many non-matching siblings must not grow the table.
  Runner r = Make("/a[b > 100]");
  std::string xml = "<a>";
  for (int i = 0; i < 200; ++i) xml += "<b>1</b>";
  xml += "</a>";
  auto events = ParseXmlToEvents(xml);
  ASSERT_TRUE(events.ok());
  auto verdict = RunFilter(r.filter.get(), events->events());
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict);
  EXPECT_LE(r.filter->stats().table_entries().peak(), 3u);
}

TEST(FrontierFilterTest, MemoryGrowsWithRecursionDepth) {
  // Thm 8.8: table size is O(|Q| * r). Nested candidate a's each keep
  // their children records live.
  Runner r = Make("//a[b and c]");
  for (size_t depth : {2u, 8u, 32u}) {
    std::string xml;
    for (size_t i = 0; i < depth; ++i) xml += "<a>";
    for (size_t i = 0; i < depth; ++i) xml += "</a>";
    auto events = ParseXmlToEvents(xml);
    ASSERT_TRUE(events.ok());
    ASSERT_TRUE(RunFilter(r.filter.get(), events->events()).ok());
    size_t peak = r.filter->stats().table_entries().peak();
    EXPECT_GE(peak, depth);      // ~2 records per open candidate + a
    EXPECT_LE(peak, 3 * depth + 3);
  }
}

TEST(FrontierFilterTest, BufferClearedBetweenValues) {
  Runner r = Make("/a[b = \"x\" and c = \"y\"]");
  auto events = ParseXmlToEvents("<a><b>x</b><c>y</c></a>");
  ASSERT_TRUE(events.ok());
  auto verdict = RunFilter(r.filter.get(), events->events());
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
  // Peak buffer is one value at a time, not the concatenation.
  EXPECT_LE(r.filter->stats().buffered_bytes().peak(), 1u);
}

TEST(FrontierFilterTest, ReusableAcrossDocuments) {
  Runner r = Make("/a[b]");
  for (const char* xml : {"<a><b/></a>", "<a><c/></a>", "<a><b/></a>"}) {
    auto events = ParseXmlToEvents(xml);
    ASSERT_TRUE(events.ok());
    auto verdict = RunFilter(r.filter.get(), events->events());
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(*verdict, std::string(xml).find("<b/>") != std::string::npos);
  }
}

TEST(FrontierFilterTest, SerializeStateChangesWithInformation) {
  Runner r = Make("/a[b and c]");
  auto e1 = ParseXmlToEvents("<a><b/><c/></a>");
  auto e2 = ParseXmlToEvents("<a><c/></a>");
  ASSERT_TRUE(e1.ok() && e2.ok());
  // Feed only the prefix up to just before </a>.
  ASSERT_TRUE(r.filter->Reset().ok());
  for (size_t i = 0; i + 2 < e1->size(); ++i) {
    ASSERT_TRUE(r.filter->OnEvent((*e1)[i]).ok());
  }
  std::string s1 = r.filter->SerializeState();
  ASSERT_TRUE(r.filter->Reset().ok());
  for (size_t i = 0; i + 2 < e2->size(); ++i) {
    ASSERT_TRUE(r.filter->OnEvent((*e2)[i]).ok());
  }
  std::string s2 = r.filter->SerializeState();
  EXPECT_NE(s1, s2);
}

TEST(FrontierFilterTest, DeepNonMatchingDocument) {
  Runner r = Make("/a/b");
  std::string xml = "<a>";
  for (int i = 0; i < 50; ++i) xml += "<z>";
  for (int i = 0; i < 50; ++i) xml += "</z>";
  xml += "<b/></a>";
  EXPECT_TRUE(Filter("/a/b", xml));
  // And re-parented b must not match.
  std::string xml2 = "<a><z><b/></z></a>";
  EXPECT_FALSE(Filter("/a/b", xml2));
}

}  // namespace
}  // namespace xpstream
