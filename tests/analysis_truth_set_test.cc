#include <gtest/gtest.h>

#include "analysis/truth_set.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

/// Builds a query, returns its TruthSetMap and the node named `name`.
struct Fixture {
  std::unique_ptr<Query> query;
  TruthSetMap truths;
  const QueryNode* Node(const std::string& name) const {
    for (const QueryNode* n : query->AllNodes()) {
      if (n->ntest() == name) return n;
    }
    return nullptr;
  }
};

Fixture Make(const std::string& text) {
  Fixture f;
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  f.query = std::move(q).value();
  auto truths = TruthSetMap::Build(*f.query);
  EXPECT_TRUE(truths.ok()) << truths.status().ToString();
  f.truths = std::move(truths).value();
  return f;
}

TEST(TruthSetTest, PaperDef56Example) {
  // /a[b/c > 5 and d]: truth sets of a, b, d are S; TRUTH(c) = (5, ∞).
  Fixture f = Make("/a[b/c > 5 and d]");
  EXPECT_TRUE(f.truths.Get(f.Node("a")).is_universal());
  EXPECT_TRUE(f.truths.Get(f.Node("b")).is_universal());
  EXPECT_TRUE(f.truths.Get(f.Node("d")).is_universal());
  const TruthSet& c = f.truths.Get(f.Node("c"));
  EXPECT_FALSE(c.is_universal());
  EXPECT_TRUE(c.Contains("6"));
  EXPECT_TRUE(c.Contains("5.5"));
  EXPECT_FALSE(c.Contains("5"));
  EXPECT_FALSE(c.Contains("4"));
  EXPECT_FALSE(c.Contains("junk"));
}

TEST(TruthSetTest, StringEquality) {
  Fixture f = Make("/a[b = \"xy\"]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_TRUE(b.Contains("xy"));
  EXPECT_FALSE(b.Contains("x"));
  EXPECT_FALSE(b.Contains("xyz"));
}

TEST(TruthSetTest, ArithmeticAroundVariable) {
  Fixture f = Make("/a[b + 2 = 5]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_TRUE(b.Contains("3"));
  EXPECT_TRUE(b.Contains("3.0"));
  EXPECT_FALSE(b.Contains("4"));
  EXPECT_FALSE(b.Contains("abc"));
}

TEST(TruthSetTest, FunctionPredicates) {
  Fixture f = Make("/a[contains(b, \"ell\") and starts-with(c, \"he\")]");
  EXPECT_TRUE(f.truths.Get(f.Node("b")).Contains("hello"));
  EXPECT_FALSE(f.truths.Get(f.Node("b")).Contains("world"));
  EXPECT_TRUE(f.truths.Get(f.Node("c")).Contains("hey"));
  EXPECT_FALSE(f.truths.Get(f.Node("c")).Contains("ho"));
}

TEST(TruthSetTest, BareExistenceIsUniversal) {
  // Header note: "[b]" is structural; TRUTH(b) = S so that matchings
  // agree with BOOLEVAL on empty elements.
  Fixture f = Make("/a[b]");
  EXPECT_TRUE(f.truths.Get(f.Node("b")).is_universal());
  EXPECT_TRUE(f.truths.Get(f.Node("b")).Contains(""));
}

TEST(TruthSetTest, TruthAttachesToSuccessionLeaf) {
  // In /a[b/c > 5], the restriction binds LEAF(b) = c, not b.
  Fixture f = Make("/a[b/c > 5]");
  EXPECT_TRUE(f.truths.Get(f.Node("b")).is_universal());
  EXPECT_FALSE(f.truths.Get(f.Node("c")).is_universal());
}

TEST(TruthSetTest, ValueRestrictedProbe) {
  Fixture f = Make("/a[b > 5 and c]");
  EXPECT_TRUE(f.truths.IsValueRestricted(f.Node("b")));
  EXPECT_FALSE(f.truths.IsValueRestricted(f.Node("c")));
  EXPECT_FALSE(f.truths.IsValueRestricted(f.Node("a")));
}

TEST(TruthSetTest, BuildRejectsMultivariate) {
  auto q = ParseQuery("/a[b = c]");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(TruthSetMap::Build(**q).ok());
}

TEST(TruthSetTest, BuildRejectsDisjunction) {
  auto q = ParseQuery("/a[b or c]");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(TruthSetMap::Build(**q).ok());
}

TEST(PrefixOfMemberTest, NumericSets) {
  Fixture f = Make("/a[b > 12]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_EQ(b.PrefixOfMember("1"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("~uq0~"), TruthSet::Tri::kNo);
  EXPECT_EQ(b.PrefixOfMember("hello"), TruthSet::Tri::kNo);
}

TEST(PrefixOfMemberTest, StringEquality) {
  Fixture f = Make("/a[b = \"world\"]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_EQ(b.PrefixOfMember("wor"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("world"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("worldly"), TruthSet::Tri::kNo);
  EXPECT_EQ(b.PrefixOfMember("xyz"), TruthSet::Tri::kNo);
}

TEST(PrefixOfMemberTest, EndsWithIsAlwaysPrefixable) {
  // PREFIX(TRUTH(ends-with)) = S — the paper's Def. 5.18 failure case.
  Fixture f = Make("/a[fn:ends-with(b, \"B\")]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_EQ(b.PrefixOfMember("anything"), TruthSet::Tri::kYes);
}

TEST(PrefixOfMemberTest, StartsWith) {
  Fixture f = Make("/a[starts-with(b, \"abc\")]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_EQ(b.PrefixOfMember("ab"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("abcdef"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("xb"), TruthSet::Tri::kNo);
}

TEST(PrefixOfMemberTest, AnchoredMatches) {
  Fixture f = Make("/a[fn:matches(b, \"^A.*B$\")]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_EQ(b.PrefixOfMember("Axy"), TruthSet::Tri::kYes);
  EXPECT_EQ(b.PrefixOfMember("xyz"), TruthSet::Tri::kNo);
}

TEST(EvalExprWithBindingTest, DirectEvaluation) {
  Fixture f = Make("/a[b * 2 > 10]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  EXPECT_TRUE(b.Contains("6"));
  EXPECT_FALSE(b.Contains("5"));
}

TEST(SampleCandidatesTest, IncludesDerivedConstants) {
  Fixture f = Make("/a[b > 12]");
  const TruthSet& b = f.truths.Get(f.Node("b"));
  auto samples = b.SampleCandidates();
  bool found_boundary = false;
  for (const std::string& s : samples) {
    if (s == "13" || s == "12.5") found_boundary = true;
  }
  EXPECT_TRUE(found_boundary);
}

/// Values that probe the number parser and the raw string compares:
/// padding, signs, leading zeros, bare dots, exponents (values only:
/// the XPath parser rejects them as literals), NaN and infinity
/// spellings, non-ASCII text and a number too long for a double.
std::vector<std::string> ProbeValues() {
  return {"",    " ",   "5",        " 5",  "\t5\n", "05",       "5.0",
          "5.",  ".5",  "-0",       "+5",  "1e3",    "NaN",      "Infinity",
          "abc", "é",   ".",        std::string(400, '7')};
}

/// Compiles TRUTH(b) of `/a[<predicate>]` and checks Accepts against
/// Contains on every probe value; returns whether the test stayed
/// generic.
bool ExpectCompiledParity(const std::string& predicate, size_t* pairs) {
  Fixture f = Make("/a[" + predicate + "]");
  const TruthSet& truth = f.truths.Get(f.Node("b"));
  EXPECT_FALSE(truth.is_universal()) << predicate;
  const ValueTest test = ValueTest::Compile(truth);
  for (const std::string& value : ProbeValues()) {
    CapturedValue captured(value);
    EXPECT_EQ(test.Accepts(&captured), truth.Contains(value))
        << predicate << " on \"" << value << "\"";
    ++*pairs;
  }
  return test.is_generic();
}

TEST(ValueTestTest, CompiledComparisonsEqualTheExpressionTree) {
  size_t pairs = 0;
  for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
    for (const char* constant :
         {"5", "0", "-0", "2.5", "\"5\"", "\"abc\"", "\"\"", "\" 5 \"",
          "\"NaN\""}) {
      const std::string c = constant;
      EXPECT_FALSE(ExpectCompiledParity("b " + std::string(op) + " " + c,
                                        &pairs))
          << op << " " << c;
      EXPECT_FALSE(ExpectCompiledParity(c + " " + op + " b", &pairs))
          << c << " " << op;
    }
  }
  EXPECT_EQ(pairs, 6u * 9 * 2 * ProbeValues().size());
}

TEST(ValueTestTest, CompiledStringFunctionsEqualTheExpressionTree) {
  size_t pairs = 0;
  for (const char* function : {"contains", "starts-with"}) {
    for (const char* constant : {"\"\"", "\"a\"", "\" \""}) {
      EXPECT_FALSE(ExpectCompiledParity(
          std::string(function) + "(b, " + constant + ")", &pairs))
          << function << " " << constant;
    }
  }
  // Forms outside the compiled set stay generic, and agree trivially.
  for (const char* predicate :
       {"ends-with(b, \"5\")", "contains(\"a\", b)", "b + 1 > 5",
        "string-length(b) > 2"}) {
    EXPECT_TRUE(ExpectCompiledParity(predicate, &pairs)) << predicate;
  }
  EXPECT_GT(pairs, 0u);
}

TEST(ValueTestTest, UniversalAcceptsEverything) {
  const ValueTest test = ValueTest::Compile(TruthSet::Universal());
  EXPECT_TRUE(test.is_universal());
  for (const std::string& value : ProbeValues()) {
    CapturedValue captured(value);
    EXPECT_TRUE(test.Accepts(&captured)) << value;
  }
}

TEST(AtomicDecompositionTest, FlattensConjunction) {
  auto q = ParseQuery("/a[b > 5 and c and contains(d, \"x\")]");
  ASSERT_TRUE(q.ok());
  const ExprNode* pred = (*q)->root()->successor()->predicate();
  EXPECT_EQ(AtomicPredicatesOf(pred).size(), 3u);
}

}  // namespace
}  // namespace xpstream
