// Earliest commitment in the frontier engine is sound: wherever a
// FrontierFilter decides before endDocument, the query matches *every*
// document that begins with the events up to its DecidedAt().
//
// The oracle cuts each early-committing run after its decided event
// and completes that prefix three ways:
//  * close every open element;
//  * add text to the innermost open element, then close;
//  * add a random subtree there, then close.
// One completion is not enough, because a value comparison can flip
// when more text arrives. The tree evaluator (BoolEval) must accept
// every completion, and the full documents' verdicts must equal its
// own. Queries and documents come from three seeded sources: random
// twigs over random documents, the message-feed subscriptions over
// recursive feeds, and the bibliography subscriptions over the book
// corpus. Each source runs a fixed number of pairs, stopping early only
// when it passes a time budget, so sanitizer builds stay bounded.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "stream/frontier_filter.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/tree_builder.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

constexpr std::chrono::seconds kBudget(10);

/// Runs the frontier engine over (query, document) pairs and checks
/// every commitment it makes before endDocument.
class CommitmentOracle {
 public:
  /// `subtree` shapes the random subtrees appended by the third
  /// completion (use the source's names, so they can matter).
  CommitmentOracle(uint64_t seed, DocGenOptions subtree)
      : rng_(seed), subtree_(std::move(subtree)) {}

  /// Checks one pair; returns false when the query is outside the
  /// frontier fragment.
  bool Check(const Query& query, const XmlDocument& doc) {
    auto filter = FrontierFilter::Create(&query);
    if (!filter.ok()) return false;
    const EventStream events = doc.ToEvents();
    auto verdict = RunFilter(filter->get(), events);
    EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
    if (!verdict.ok()) return true;
    EXPECT_EQ(*verdict, BoolEval(query, doc))
        << "query: " << query.ToString()
        << "\ndoc: " << EventStreamToString(events);
    ++pairs_;
    const size_t decided = (*filter)->DecidedAt();
    EXPECT_LT(decided, events.size()) << query.ToString();
    if (decided + 1 >= events.size()) return true;  // decided at the end
    ++early_;
    position_sum_ += static_cast<double>(decided) /
                     static_cast<double>(events.size() - 1);
    // A decision before endDocument is a commitment to a match.
    EXPECT_TRUE(*verdict) << query.ToString();

    const EventStream prefix(events.begin(), events.begin() + decided + 1);
    std::vector<std::string_view> open;  // innermost last
    for (const Event& event : prefix) {
      if (event.type == EventType::kStartElement) open.push_back(event.name);
      if (event.type == EventType::kEndElement) open.pop_back();
    }
    ExpectCompletionMatches(query, prefix, open, {}, "closing");
    if (open.empty()) return true;  // only endDocument can follow

    const std::string text =
        rng_.Bernoulli(0.5)
            ? StringPrintf("%d", static_cast<int>(rng_.UniformRange(-5, 20)))
            : rng_.NextName(1 + rng_.Uniform(3));
    ExpectCompletionMatches(query, prefix, open, {Event::Text(text)},
                            "text");

    const auto subtree = GenerateRandomDocument(&rng_, subtree_);
    const EventStream subtree_events = subtree->ToEvents();
    ExpectCompletionMatches(
        query, prefix, open,
        EventStream(subtree_events.begin() + 1, subtree_events.end() - 1),
        "subtree");
    return true;
  }

  size_t pairs() const { return pairs_; }
  size_t early() const { return early_; }
  /// Mean decided position of the early commitments, as a fraction of
  /// the document's events.
  double mean_early_position() const {
    return early_ == 0 ? 0.0 : position_sum_ / static_cast<double>(early_);
  }

 private:
  static void ExpectCompletionMatches(const Query& query,
                                      const EventStream& prefix,
                                      const std::vector<std::string_view>& open,
                                      const EventStream& middle,
                                      const char* how) {
    EventStream events = prefix;
    events.insert(events.end(), middle.begin(), middle.end());
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      events.push_back(Event::EndElement(*it));
    }
    events.push_back(Event::EndDocument());
    auto completed = EventsToDocument(events);
    ASSERT_TRUE(completed.ok()) << completed.status().ToString();
    EXPECT_TRUE(BoolEval(query, **completed))
        << "unsound commitment after event " << prefix.size() - 1
        << " (" << how << " completion)\nquery: " << query.ToString()
        << "\ncompleted: " << EventStreamToString(events);
  }

  Random rng_;
  DocGenOptions subtree_;
  size_t pairs_ = 0;
  size_t early_ = 0;
  double position_sum_ = 0;
};

/// True once `start` is more than the time budget ago.
bool OverBudget(std::chrono::steady_clock::time_point start) {
  return std::chrono::steady_clock::now() - start > kBudget;
}

void RunRandomPairs(uint64_t seed, size_t pairs, DocGenOptions dopts,
                    QueryGenOptions qopts) {
  const auto start = std::chrono::steady_clock::now();
  Random rng(seed);
  DocGenOptions subtree = dopts;
  subtree.max_depth = 2;
  CommitmentOracle oracle(seed + 1, subtree);
  for (size_t i = 0; i < pairs && !OverBudget(start); ++i) {
    auto query = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const auto doc = GenerateRandomDocument(&rng, dopts);
    oracle.Check(**query, *doc);
    if (::testing::Test::HasFailure()) return;
  }
  // Not vacuous: random pairs rarely match, but some 5-10% of them
  // commit mid-document.
  EXPECT_GT(oracle.early(), oracle.pairs() / 20)
      << oracle.early() << " of " << oracle.pairs();
}

TEST(FrontierCommitmentTest, RandomTwigsOverRandomDocuments) {
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  RunRandomPairs(7, 8000, DocGenOptions(), qopts);
}

TEST(FrontierCommitmentTest, RandomTwigsOverRecursiveDocuments) {
  DocGenOptions dopts;
  dopts.max_depth = 7;
  dopts.name_pool = 2;  // nearly every element shares a name
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.name_pool = 2;
  qopts.descendant_prob = 0.6;
  RunRandomPairs(13, 4000, dopts, qopts);
}

TEST(FrontierCommitmentTest, ValueHeavyTwigs) {
  DocGenOptions dopts;
  dopts.max_depth = 4;
  dopts.text_prob = 0.9;
  dopts.attr_prob = 0.4;
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.value_predicate_prob = 0.9;
  RunRandomPairs(19, 8000, dopts, qopts);
}

/// Parses each text; every one must be inside the frontier fragment.
std::vector<std::unique_ptr<Query>> ParseAll(
    const std::vector<std::string>& texts) {
  std::vector<std::unique_ptr<Query>> queries;
  for (const std::string& text : texts) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text;
    if (query.ok()) queries.push_back(std::move(query).value());
  }
  return queries;
}

TEST(FrontierCommitmentTest, MessageFeedSubscriptions) {
  // The subscriptions themselves, plus their four shapes with the
  // priority thresholds the deep-early benchmark uses.
  std::vector<std::string> texts = MessageFeedSubscriptions();
  for (const char* shape : {"//msg[header/priority > %d and body]",
                            "/feed/msg[.//priority > %d]",
                            "//msg[body and header/priority < %d]",
                            "//msg[header[from and priority > %d] and msg]"}) {
    for (int threshold : {1, 3, 5, 7}) {
      texts.push_back(StringPrintf(shape, threshold));
    }
  }
  const auto queries = ParseAll(texts);
  DocGenOptions subtree;
  subtree.max_depth = 3;
  subtree.names = {"msg", "header", "priority", "from", "body"};
  subtree.name_pool = subtree.names.size();
  subtree.numeric_text_prob = 0.9;
  CommitmentOracle oracle(23, subtree);
  const auto start = std::chrono::steady_clock::now();
  Random rng(29);
  for (int d = 0; d < 40 && !OverBudget(start); ++d) {
    const auto doc = GenerateMessageFeed(1 + rng.Uniform(6), 5, &rng);
    for (const auto& query : queries) {
      ASSERT_TRUE(oracle.Check(*query, *doc)) << query->ToString();
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(oracle.early(), oracle.pairs() / 2)
      << oracle.early() << " of " << oracle.pairs();
  // /feed/msg[.//priority > d] commits inside the first msg that
  // satisfies it, so on average the early commitments land in the
  // first half of a feed.
  EXPECT_LT(oracle.mean_early_position(), 0.5);
}

TEST(FrontierCommitmentTest, BibliographySubscriptions) {
  const auto queries = ParseAll(BibliographySubscriptions());
  DocGenOptions subtree;
  subtree.max_depth = 2;
  subtree.names = {"title", "author", "last", "first", "year", "price"};
  subtree.name_pool = subtree.names.size();
  CommitmentOracle oracle(31, subtree);
  const auto start = std::chrono::steady_clock::now();
  const auto corpus = GenerateBibliographyCorpus(300, 37);
  for (const auto& doc : corpus) {
    if (OverBudget(start)) break;
    for (const auto& query : queries) {
      ASSERT_TRUE(oracle.Check(*query, *doc)) << query->ToString();
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(oracle.early(), 0u);
}

}  // namespace
}  // namespace xpstream
