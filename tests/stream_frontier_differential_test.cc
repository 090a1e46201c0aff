#include <gtest/gtest.h>

#include "analysis/matching.h"
#include "common/random.h"
#include "stream/frontier_filter.h"
#include "stream/naive_filter.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

/// The backbone correctness argument for the FrontierFilter: fuzz random
/// (query, document) pairs from the supported fragment and require exact
/// agreement with the ground-truth evaluator — including on recursive
/// documents, where the pseudo-code subtleties live.
void RunDifferential(uint64_t seed, int iterations, DocGenOptions dopts,
                     QueryGenOptions qopts) {
  Random rng(seed);
  size_t checked = 0;
  size_t skipped = 0;
  for (int i = 0; i < iterations; ++i) {
    auto query = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto filter = FrontierFilter::Create(query->get());
    if (!filter.ok()) {
      ++skipped;  // outside the supported fragment (rare)
      continue;
    }
    auto doc = GenerateRandomDocument(&rng, dopts);
    bool expected = BoolEval(**query, *doc);
    auto verdict = RunFilter(filter->get(), doc->ToEvents());
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(*verdict, expected)
        << "query: " << (*query)->ToString() << "\ndoc: "
        << EventStreamToString(doc->ToEvents());
    ++checked;
    if (::testing::Test::HasFailure()) return;
  }
  // The generator stays inside the fragment almost always.
  EXPECT_GT(checked, static_cast<size_t>(iterations) * 8 / 10)
      << "too many skips: " << skipped;
}

TEST(FrontierDifferentialTest, ShallowDocuments) {
  DocGenOptions dopts;
  dopts.max_depth = 3;
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  RunDifferential(1001, 400, dopts, qopts);
}

TEST(FrontierDifferentialTest, DeepNarrowDocuments) {
  DocGenOptions dopts;
  dopts.max_depth = 9;
  dopts.max_fanout = 2;
  dopts.name_pool = 3;  // forces recursive name collisions
  QueryGenOptions qopts;
  qopts.max_depth = 4;
  qopts.name_pool = 3;
  qopts.descendant_prob = 0.5;
  RunDifferential(2002, 300, dopts, qopts);
}

TEST(FrontierDifferentialTest, HighlyRecursiveDocuments) {
  DocGenOptions dopts;
  dopts.max_depth = 7;
  dopts.max_fanout = 3;
  dopts.name_pool = 2;  // nearly every element shares a name
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.name_pool = 2;
  qopts.descendant_prob = 0.6;
  qopts.value_predicate_prob = 0.2;
  RunDifferential(3003, 300, dopts, qopts);
}

TEST(FrontierDifferentialTest, ValueHeavyQueries) {
  DocGenOptions dopts;
  dopts.max_depth = 4;
  dopts.text_prob = 0.9;
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.value_predicate_prob = 0.9;
  RunDifferential(4004, 300, dopts, qopts);
}

TEST(FrontierDifferentialTest, AgreesWithNaiveFilterOnEventStreams) {
  // Second oracle: the buffering NaiveTreeFilter (tree + evaluator).
  Random rng(5005);
  DocGenOptions dopts;
  QueryGenOptions qopts;
  for (int i = 0; i < 150; ++i) {
    auto query = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(query.ok());
    auto frontier = FrontierFilter::Create(query->get());
    if (!frontier.ok()) continue;
    auto naive = NaiveTreeFilter::Create(query->get());
    ASSERT_TRUE(naive.ok());
    auto doc = GenerateRandomDocument(&rng, dopts);
    EventStream events = doc->ToEvents();
    auto v1 = RunFilter(frontier->get(), events);
    auto v2 = RunFilter(naive->get(), events);
    ASSERT_TRUE(v1.ok() && v2.ok());
    EXPECT_EQ(*v1, *v2) << (*query)->ToString();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FrontierDifferentialTest, MemoryBoundHolds) {
  // Thm 8.8: table entries <= |Q| * (path recursion depth + 1) on every
  // run (the +1 covers the root record).
  Random rng(6006);
  DocGenOptions dopts;
  dopts.max_depth = 6;
  dopts.name_pool = 3;
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.name_pool = 3;
  for (int i = 0; i < 100; ++i) {
    auto query = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(query.ok());
    auto filter = FrontierFilter::Create(query->get());
    if (!filter.ok()) continue;
    auto doc = GenerateRandomDocument(&rng, dopts);
    ASSERT_TRUE(RunFilter(filter->get(), doc->ToEvents()).ok());
    size_t bound = (*query)->size() * (PathRecursionDepth(**query, *doc) + 1);
    EXPECT_LE((*filter)->stats().table_entries().peak(), bound)
        << (*query)->ToString();
    if (::testing::Test::HasFailure()) return;
  }
}

/// Feeds `events` to two filters over `query`: an untraced one, which
/// skips irrelevant subtrees, and a traced one, which snapshots every
/// event and so always walks in full. The skip must be invisible: the
/// same state, decision position and gauges after every event, and the
/// same verdict. Returns false when the query is outside the fragment.
bool ExpectSkipInvisible(const Query& query, const EventStream& events,
                         bool literal) {
  auto skipping = FrontierFilter::Create(&query);
  auto walking = FrontierFilter::Create(&query);
  if (!skipping.ok() || !walking.ok()) return false;
  (*walking)->EnableTrace();
  (*skipping)->SetLiteralPseudocodeMode(literal);
  (*walking)->SetLiteralPseudocodeMode(literal);
  for (size_t k = 0; k < events.size(); ++k) {
    const Status skipped = (*skipping)->OnEvent(events[k]);
    const Status walked = (*walking)->OnEvent(events[k]);
    const std::string where = "query: " + query.ToString() + "\nevent " +
                              std::to_string(k) + ": " +
                              events[k].ToString();
    EXPECT_EQ(skipped.code(), walked.code()) << where;
    EXPECT_EQ((*skipping)->SerializeState(), (*walking)->SerializeState())
        << where;
    EXPECT_EQ((*skipping)->DecidedAt(), (*walking)->DecidedAt()) << where;
    const MemoryStats& a = (*skipping)->stats();
    const MemoryStats& b = (*walking)->stats();
    EXPECT_EQ(a.ToString(), b.ToString()) << where;
    EXPECT_EQ(a.auxiliary_bytes().current(), b.auxiliary_bytes().current())
        << where;
    if (::testing::Test::HasFailure()) return true;
  }
  // One snapshot per event: the oracle really walked in full.
  EXPECT_EQ((*walking)->trace().size(), events.size()) << query.ToString();
  auto skipped = (*skipping)->Matched();
  auto walked = (*walking)->Matched();
  EXPECT_EQ(skipped.ok(), walked.ok()) << query.ToString();
  if (skipped.ok() && walked.ok()) {
    EXPECT_EQ(*skipped, *walked) << query.ToString();
  }
  return true;
}

TEST(FrontierDifferentialTest, SubtreeSkippingIsInvisible) {
  for (bool literal : {false, true}) {
    // Random pairs over a small name pool: recursion, wildcards,
    // attributes and value predicates.
    Random rng(7007);
    DocGenOptions dopts;
    dopts.max_depth = 7;
    dopts.name_pool = 3;
    QueryGenOptions qopts;
    qopts.max_depth = 3;
    qopts.name_pool = 3;
    size_t checked = 0;
    for (int i = 0; i < 300; ++i) {
      auto query = GenerateRandomQuery(&rng, qopts);
      ASSERT_TRUE(query.ok());
      auto doc = GenerateRandomDocument(&rng, dopts);
      checked += ExpectSkipInvisible(**query, doc->ToEvents(), literal);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(checked, 240u);

    // The scenario corpora: recursive message feeds, where whole
    // messages become irrelevant once a predicate matched, and the
    // deep-recursion nest.
    std::vector<std::string> texts = MessageFeedSubscriptions();
    texts.push_back("/feed/msg/header/from");
    texts.push_back("/feed/msg[.//priority > 3]");
    for (const std::string& text : DeepRecursionSubscriptions()) {
      texts.push_back(text);
    }
    std::vector<EventStream> corpora;
    std::vector<std::unique_ptr<XmlDocument>> storage;
    for (size_t recursion : {0u, 3u, 8u}) {
      storage.push_back(GenerateMessageFeed(12, recursion, &rng));
      corpora.push_back(storage.back()->ToEvents());
    }
    corpora.push_back(GenerateDeepRecursionDocument(24));
    for (const std::string& text : texts) {
      auto query = ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      for (const EventStream& events : corpora) {
        EXPECT_TRUE(ExpectSkipInvisible(**query, events, literal)) << text;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace xpstream
