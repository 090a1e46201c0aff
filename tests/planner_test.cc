// The query planner and admission control (include/xpstream/planner.h,
// docs/cost_model.md). Three contracts under test:
//
//  1. Calibration: on the §4 adversarial corpora (deep recursion, wide
//     fanout, the E5 //a/*^k blowup family) every engine's predicted
//     peak is within a stated factor of its measured peak — never
//     below measured/1.5, never above measured*10 (overprediction is
//     the safe direction for admission control), and never below the
//     paper's information-theoretic floor.
//
//  2. Auto-selection: engine = "auto" routes each subscription to a
//     concrete engine whose measured peak on the E5 blowup corpus is
//     within 2x of the best engine's, with verdicts identical to every
//     concrete engine that accepts the query.
//
//  3. Admission: a subscription whose predicted peak exceeds
//     memory_budget_bytes is rejected with kResourceExhausted (or
//     admitted degraded under AdmissionPolicy::kDegrade), identically
//     through the library API and the TCP SUBSCRIBE path; dedup hits
//     and Unsubscribe interact with the budget as documented.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/writer.h"
#include "xpstream/planner.h"
#include "xpstream/server.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

constexpr const char* kEngines[] = {"naive", "nfa", "lazy_dfa", "frontier",
                                    "nfa_index"};

struct Corpus {
  std::string name;
  EventStream events;
  std::vector<std::string> queries;
};

std::vector<Corpus> AdversarialCorpora() {
  std::vector<Corpus> corpora;
  corpora.push_back({"deep_recursion", GenerateDeepRecursionDocument(64),
                     DeepRecursionSubscriptions()});
  corpora.push_back({"wide_fanout", GenerateWideFanoutDocument(256),
                     WideFanoutSubscriptions()});
  corpora.push_back({"e5_blowup", GenerateBlowupDocument(12),
                     {BlowupQuery(2), BlowupQuery(6), BlowupQuery(10)}});
  return corpora;
}

/// Runs one engine over one document with one subscription and returns
/// its measured peak: PeakBytes at the planner's 16-bytes-per-entry
/// charge, minus the pipeline-wide symbol table (the cost model prices
/// per-subscription state; interning is shared overhead). Returns 0
/// when the engine rejects the query.
size_t MeasurePeak(const std::string& engine, const std::string& query,
                   const EventStream& events, std::vector<bool>* verdicts) {
  auto eng = Engine::Create(engine);
  EXPECT_TRUE(eng.ok()) << engine;
  Status subscribed = (*eng)->Subscribe("s", query);
  if (!subscribed.ok()) {
    EXPECT_EQ(subscribed.code(), StatusCode::kUnsupported)
        << engine << " " << query << ": " << subscribed.ToString();
    return 0;
  }
  auto result = (*eng)->FilterEvents(events);
  EXPECT_TRUE(result.ok()) << engine << " " << query;
  if (verdicts != nullptr && result.ok()) *verdicts = *result;
  const MemoryStats& stats = (*eng)->stats();
  return stats.PeakBytes(16) - stats.symbol_bytes().peak();
}

TEST(PlannerTest, PredictionWithinStatedFactor) {
  for (const Corpus& corpus : AdversarialCorpora()) {
    DocumentProfile profile;
    profile.ObserveEvents(corpus.events);
    for (const std::string& text : corpus.queries) {
      auto query = CompileQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      for (const char* engine : kEngines) {
        const size_t measured =
            MeasurePeak(engine, text, corpus.events, nullptr);
        if (measured == 0) continue;  // engine rejected the query
        auto cost = EstimateEngineCost(*query, profile, engine);
        ASSERT_TRUE(cost.ok()) << engine;
        const size_t predicted = cost->PredictedPeakBytes();
        // The stated factor: predictions may overshoot the measured
        // peak (the planner prices the worst document the profile
        // admits, the run may stay below it) but only up to 10x, and
        // may undershoot by at most 1.5x — an underprediction worse
        // than that would let admission control approve a subscription
        // that blows its budget.
        EXPECT_GE(predicted * 3, measured * 2)
            << corpus.name << " " << engine << " " << text << ": predicted "
            << predicted << " vs measured " << measured;
        EXPECT_LE(predicted, measured * 10)
            << corpus.name << " " << engine << " " << text << ": predicted "
            << predicted << " vs measured " << measured;
        // The estimate never beats the paper's floor for the
        // query/profile pair: Thm 4.5 / Thm 8.8 bits fit inside the
        // predicted bytes.
        EXPECT_GE(predicted * 8, cost->lower_bound_bits)
            << corpus.name << " " << engine << " " << text;
      }
    }
  }
}

TEST(PlannerTest, RankingIsSupportedFirstThenCheapest) {
  DocumentProfile profile;  // assumed defaults
  auto query = CompileQuery(BlowupQuery(8));
  ASSERT_TRUE(query.ok());
  QueryPlan plan = PlanQuery(*query, profile);
  ASSERT_EQ(plan.ranking.size(), 5u);
  bool seen_unsupported = false;
  size_t previous = 0;
  for (const EnginePrediction& prediction : plan.ranking) {
    if (!prediction.supported) {
      seen_unsupported = true;
      continue;
    }
    EXPECT_FALSE(seen_unsupported)
        << "supported engine ranked after an unsupported one";
    EXPECT_GE(prediction.cost.PredictedPeakBytes(), previous);
    previous = prediction.cost.PredictedPeakBytes();
  }
  const EnginePrediction* choice = plan.Choice();
  ASSERT_NE(choice, nullptr);
  EXPECT_EQ(choice->engine, "nfa");  // cheapest for a linear path

  // A predicate query leaves the automaton fragment: only frontier and
  // naive remain supported, and the cheaper frontier wins.
  auto withPredicate = CompileQuery("//m[h]/body");
  ASSERT_TRUE(withPredicate.ok());
  QueryPlan predicatePlan = PlanQuery(*withPredicate, profile);
  const EnginePrediction* predicateChoice = predicatePlan.Choice();
  ASSERT_NE(predicateChoice, nullptr);
  EXPECT_EQ(predicateChoice->engine, "frontier");
  for (const EnginePrediction& prediction : predicatePlan.ranking) {
    if (prediction.engine == "nfa" || prediction.engine == "lazy_dfa" ||
        prediction.engine == "nfa_index") {
      EXPECT_FALSE(prediction.supported) << prediction.engine;
    }
  }
}

// The plan's `supported` column is each engine's own fragment gate: for
// every row of every plan, a fresh engine of that name accepts the query
// exactly when the row says supported, and rejects it with kUnsupported
// otherwise.
TEST(PlannerTest, SupportedColumnIsEachEnginesOwnGate) {
  std::vector<std::string> texts = {
      "/a/b",      "//a/*/c",     "/a/@id",        "//a/b/@id",
      "/a/@id/b",  "/*",          "//a//b",        "//m[h]/body",
      "/book[price < 30]/title",  "/a[b or c]",    "/a[b = c]",
      "//a[not(b)]", "/a[b/c > 3]/d", "//*[@x]",   "//a[@x = 1]/b"};
  // Linear paths at and just past the automata stacks' 63-step limit.
  for (size_t steps : {63, 64}) {
    std::string path;
    for (size_t i = 0; i < steps; ++i) path += "/a";
    texts.push_back(path);
  }
  Random rng(109);
  QueryGenOptions twigs;
  twigs.max_depth = 3;
  twigs.wildcard_prob = 0.3;
  for (int i = 0; i < 80; ++i) {
    auto twig = GenerateRandomQuery(&rng, twigs);
    ASSERT_TRUE(twig.ok());
    texts.push_back((*twig)->ToString());
    auto path = GenerateLinearQuery(&rng, 1 + rng.Uniform(6), 0.3, 0.2, 3);
    ASSERT_TRUE(path.ok());
    texts.push_back((*path)->ToString());
  }
  const DocumentProfile profile;
  for (const std::string& text : texts) {
    auto query = CompileQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    for (const EnginePrediction& row : PlanQuery(*query, profile).ranking) {
      auto engine = Engine::Create(row.engine);
      ASSERT_TRUE(engine.ok()) << row.engine;
      const Status status = (*engine)->Subscribe("q", text);
      if (row.supported) {
        EXPECT_TRUE(status.ok())
            << row.engine << " on " << text << ": " << status.ToString();
      } else {
        EXPECT_EQ(status.code(), StatusCode::kUnsupported)
            << row.engine << " on " << text << " (plan: " << row.why << ")";
      }
    }
  }
}

TEST(PlannerTest, UnknownEngineIsNotPriceable) {
  DocumentProfile profile;
  auto query = CompileQuery("/a/b");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(EstimateEngineCost(*query, profile, "auto").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(EstimateEngineCost(*query, profile, "bogus").status().code(),
            StatusCode::kNotFound);
}

// The E5 acceptance criterion: on the blowup corpus, "auto" never picks
// an engine whose measured peak exceeds the best concrete engine's by
// more than 2x — the planner has to price lazy_dfa's 2^k table out of
// contention and land on an automaton-stack engine.
TEST(PlannerTest, AutoSelectionWithinTwiceBestOnBlowupCorpus) {
  const EventStream events = GenerateBlowupDocument(12);
  for (size_t k : {size_t{2}, size_t{6}, size_t{10}}) {
    const std::string text = BlowupQuery(k);
    size_t best = 0;
    std::vector<bool> reference;
    for (const char* engine : kEngines) {
      std::vector<bool> verdicts;
      const size_t measured = MeasurePeak(engine, text, events, &verdicts);
      if (measured == 0) continue;
      if (best == 0 || measured < best) best = measured;
      if (reference.empty()) {
        reference = verdicts;
      } else {
        EXPECT_EQ(verdicts, reference) << engine << " diverges on " << text;
      }
    }
    ASSERT_GT(best, 0u);

    std::vector<bool> autoVerdicts;
    const size_t autoMeasured =
        MeasurePeak("auto", text, events, &autoVerdicts);
    ASSERT_GT(autoMeasured, 0u);
    EXPECT_EQ(autoVerdicts, reference) << "auto diverges on " << text;
    EXPECT_LE(autoMeasured, 2 * best)
        << "auto picked an engine " << autoMeasured << " bytes vs best "
        << best << " on " << text;
  }
}

TEST(PlannerTest, AutoRoutesPerSubscriptionAndReportsThePlan) {
  auto engine = Engine::Create("auto");
  ASSERT_TRUE(engine.ok());
  // A linear path lands on an automaton engine; a predicate query
  // cannot, and must route to a tree-capable engine in the same
  // pipeline.
  ASSERT_TRUE((*engine)->Subscribe("linear", "//m/body").ok());
  ASSERT_TRUE((*engine)->Subscribe("predicate", "//m[h]/body").ok());

  auto linearPlan = (*engine)->PlanOf("linear");
  ASSERT_TRUE(linearPlan.ok());
  EXPECT_EQ(linearPlan->engine, "nfa");
  EXPECT_GT(linearPlan->predicted_peak_bytes, 0u);
  auto predicatePlan = (*engine)->PlanOf("predicate");
  ASSERT_TRUE(predicatePlan.ok());
  EXPECT_EQ(predicatePlan->engine, "frontier");

  const EventStream events = GenerateDeepRecursionDocument(8);
  auto verdicts = (*engine)->FilterEvents(events);
  ASSERT_TRUE(verdicts.ok());
  // Reference: the default engine accepts both queries.
  auto reference = Engine::Create("frontier");
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->Subscribe("linear", "//m/body").ok());
  ASSERT_TRUE((*reference)->Subscribe("predicate", "//m[h]/body").ok());
  auto expected = (*reference)->FilterEvents(events);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*verdicts, *expected);
}

// "auto" feeds each event to several routed engines, yet its sink hears
// every ordinal's matches in ascending subscription order: exactly the
// union of what each routed engine reports alone.
TEST(PlannerTest, AutoSinkOrderMergesRoutedEngines) {
  const std::vector<std::string> queries = {
      "//a[b and c]", "//b/@id", "//c",   "//b[@id]", "/a/*/c",
      "/a/b",         "//b[c]",  "/a//d", "//d/c",    "/a/b/@id"};
  const std::string xml = "<a><b id=\"1\"><c/></b><c/><d><c/></d></a>";

  struct Recorder : ResultSink {
    void OnMatch(size_t slot, size_t doc_index,
                 size_t event_ordinal) override {
      (void)doc_index;
      matches.emplace_back(event_ordinal, slot);
    }
    std::vector<std::pair<size_t, size_t>> matches;  // (ordinal, sub)
  };
  auto id = [](size_t sub) { return "q" + std::to_string(sub); };

  auto routed = Engine::Create("auto");
  ASSERT_TRUE(routed.ok());
  for (size_t sub = 0; sub < queries.size(); ++sub) {
    ASSERT_TRUE((*routed)->Subscribe(id(sub), queries[sub],
                                     DeliveryMode::kEarliest).ok())
        << queries[sub];
  }
  Recorder got;
  (*routed)->SetSink(&got);
  ASSERT_TRUE((*routed)->FilterXml(xml).ok());

  std::map<std::string, std::vector<size_t>> subs_of_engine;
  for (size_t sub = 0; sub < queries.size(); ++sub) {
    auto plan = (*routed)->PlanOf(id(sub));
    ASSERT_TRUE(plan.ok());
    subs_of_engine[plan->engine].push_back(sub);
  }
  ASSERT_GE(subs_of_engine.size(), 2u);

  std::vector<std::pair<size_t, size_t>> expected;
  for (const auto& [name, subs] : subs_of_engine) {
    auto alone = Engine::Create(name);
    ASSERT_TRUE(alone.ok());
    for (size_t sub : subs) {
      ASSERT_TRUE((*alone)->Subscribe(id(sub), queries[sub],
                                      DeliveryMode::kEarliest).ok())
          << name << " " << queries[sub];
    }
    Recorder heard;
    (*alone)->SetSink(&heard);
    ASSERT_TRUE((*alone)->FilterXml(xml).ok());
    for (const auto& [ordinal, slot] : heard.matches) {
      expected.emplace_back(ordinal, subs[slot]);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got.matches, expected);
}

TEST(PlannerTest, ObservedProfileTakesOverFromAssumed) {
  auto engine = Engine::Create("frontier");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->observed_profile().documents, 0u);
  const size_t assumed_depth = (*engine)->observed_profile().max_depth;
  const EventStream events = GenerateDeepRecursionDocument(64);
  ASSERT_TRUE((*engine)->FilterEvents(events).ok());
  EXPECT_EQ((*engine)->observed_profile().documents, 1u);
  // The deep corpus nests past the assumed default; the profile now
  // reports observed reality, not the assumption.
  EXPECT_GT((*engine)->observed_profile().max_depth, assumed_depth);
}

// Compact-time re-routing: "auto" admits a subscription on the engine
// cheapest under the profile known *then*; when observed documents
// shift the ranking, CompactSubscriptions() re-prices and re-routes —
// even with nothing tombstoned — without changing any answer.
TEST(PlannerTest, CompactReroutesSlotWhenProfileGrowthFlipsTheChoice) {
  auto engine = Engine::Create("auto");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("s", "/a/b/c").ok());
  auto before = (*engine)->PlanOf("s");
  ASSERT_TRUE(before.ok());
  // Under the assumed profile (shallow documents) the per-level NFA
  // stack is the cheapest structure for a short child-only path.
  EXPECT_EQ(before->engine, "nfa");

  // A document nesting far past the assumption. The NFA's stack grows
  // with *document* depth; the frontier table is bounded by the query's
  // own depth (no descendant axis, so the query never recurses), so
  // past some depth the ranking flips.
  std::string deep = "<a><b><c>";
  for (int i = 0; i < 64; ++i) deep += "<d>";
  for (int i = 0; i < 64; ++i) deep += "</d>";
  deep += "</c></b></a>";
  auto verdicts = (*engine)->FilterXml(deep);
  ASSERT_TRUE(verdicts.ok());
  EXPECT_EQ(*verdicts, std::vector<bool>{true});
  EXPECT_GT((*engine)->observed_profile().max_depth, 16u);

  // Routing is sticky between maintenance points.
  auto mid = (*engine)->PlanOf("s");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->engine, "nfa");

  // Nothing is tombstoned, so this compaction is a pure re-route.
  const size_t rebuilds = (*engine)->automaton_rebuilds();
  ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
  EXPECT_EQ((*engine)->automaton_rebuilds(), rebuilds + 1);
  auto after = (*engine)->PlanOf("s");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->engine, "frontier");
  // The plan that re-routed the slot also re-priced it.
  auto query = CompileQuery("/a/b/c");
  ASSERT_TRUE(query.ok());
  const QueryPlan plan = PlanQuery(*query, (*engine)->observed_profile());
  const EnginePrediction* choice = plan.Choice();
  ASSERT_NE(choice, nullptr);
  EXPECT_EQ(after->predicted_peak_bytes, choice->cost.PredictedPeakBytes());
  EXPECT_EQ((*engine)->predicted_peak_bytes(),
            choice->cost.PredictedPeakBytes());

  // Re-routing changes the memory shape, never the answers.
  auto again = (*engine)->FilterXml(deep);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, std::vector<bool>{true});

  // With the ranking now stable, another compact is a no-op.
  ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
  EXPECT_EQ((*engine)->automaton_rebuilds(), rebuilds + 1);
}

// --- admission control ---------------------------------------------

/// The predicted admission price of `query` on `engine_name` under the
/// engine's assumed (pre-document) profile — what Subscribe charges.
size_t PredictedPrice(const std::string& engine_name,
                      const std::string& query) {
  auto compiled = CompileQuery(query);
  EXPECT_TRUE(compiled.ok());
  DocumentProfile assumed;
  if (engine_name == "auto") {
    QueryPlan plan = PlanQuery(*compiled, assumed);
    const EnginePrediction* choice = plan.Choice();
    EXPECT_NE(choice, nullptr);
    return choice->cost.PredictedPeakBytes();
  }
  auto cost = EstimateEngineCost(*compiled, assumed, engine_name);
  EXPECT_TRUE(cost.ok());
  return cost->PredictedPeakBytes();
}

TEST(AdmissionTest, RejectsSubscriptionOverBudget) {
  const std::string query = "//m[h]/body";
  const size_t price = PredictedPrice("frontier", query);
  ASSERT_GT(price, 0u);

  EngineOptions options;
  options.engine = "frontier";
  options.memory_budget_bytes = price - 1;  // one byte short
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  Status status = (*engine)->Subscribe("s", query);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  // A rejected Subscribe leaves the engine untouched.
  EXPECT_EQ((*engine)->NumSubscriptions(), 0u);
  EXPECT_EQ((*engine)->predicted_peak_bytes(), 0u);
  EXPECT_EQ((*engine)->admission_rejects(), 1u);

  // The same subscription under a sufficient budget is admitted and
  // charged.
  options.memory_budget_bytes = price;
  auto roomy = Engine::Create(options);
  ASSERT_TRUE(roomy.ok());
  EXPECT_TRUE((*roomy)->Subscribe("s", query).ok());
  EXPECT_EQ((*roomy)->predicted_peak_bytes(), price);
}

TEST(AdmissionTest, DegradePolicyAdmitsAtEnd) {
  const std::string query = "//m[h]/body";
  EngineOptions options;
  options.engine = "frontier";
  options.memory_budget_bytes = 1;  // everything is over budget
  options.admission = AdmissionPolicy::kDegrade;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->Subscribe("s", query, DeliveryMode::kEarliest).ok());
  auto plan = (*engine)->PlanOf("s");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->degraded);
  EXPECT_EQ((*engine)->admission_degrades(), 1u);
  // Degraded means late delivery, never wrong answers.
  auto verdicts = (*engine)->FilterEvents(GenerateDeepRecursionDocument(8));
  ASSERT_TRUE(verdicts.ok());
  EXPECT_EQ(*verdicts, std::vector<bool>{true});
}

TEST(AdmissionTest, DeduplicatedSubscriptionsAreFree) {
  const std::string query = "//m[h]/body";
  const size_t price = PredictedPrice("frontier", query);
  EngineOptions options;
  options.engine = "frontier";
  options.memory_budget_bytes = price;  // room for exactly one slot
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("first", query).ok());
  // An equivalent query dedups onto the existing slot: no new
  // evaluation state, so admission waves it through at full budget.
  EXPECT_TRUE((*engine)->Subscribe("duplicate", query).ok());
  EXPECT_EQ((*engine)->num_eval_slots(), 1u);
  // A distinct query needs a new slot and is over budget.
  EXPECT_EQ((*engine)->Subscribe("distinct", "//m/body").code(),
            StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, UnsubscribeReleasesTheBudget) {
  const std::string query = "//m[h]/body";
  const size_t price = PredictedPrice("frontier", query);
  EngineOptions options;
  options.engine = "frontier";
  options.memory_budget_bytes = price;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("first", query).ok());
  EXPECT_EQ((*engine)->Subscribe("second", "//m[h and body]").code(),
            StatusCode::kResourceExhausted);
  // Tombstoning the slot returns its charge; the rejected query now
  // fits (its own price is at most `price` under the same profile).
  ASSERT_TRUE((*engine)->Unsubscribe("first").ok());
  EXPECT_EQ((*engine)->predicted_peak_bytes(), 0u);
  EXPECT_TRUE((*engine)->Subscribe("second", "//m[h and body]").ok());
}

// Library/TCP parity: the same budget rejects the same subscription
// with the same status code through both front doors, and the quota
// counters surface in STATS.
TEST(AdmissionTest, TcpSubscribeParity) {
  const std::string admitted = "//m[h]/body";
  const std::string rejected = "//m[h and body]";
  const size_t price = PredictedPrice("frontier", admitted);

  // Library side, on the service's configuration.
  EngineOptions engineOptions = ServiceEngineOptions();
  engineOptions.engine = "frontier";
  engineOptions.memory_budget_bytes = price;
  auto direct = Engine::Create(engineOptions);
  ASSERT_TRUE(direct.ok());
  Status libraryFirst = (*direct)->Subscribe("a", admitted);
  Status librarySecond = (*direct)->Subscribe("b", rejected);
  EXPECT_TRUE(libraryFirst.ok());
  EXPECT_EQ(librarySecond.code(), StatusCode::kResourceExhausted);

  // TCP side: the server runs its engine with the same options.
  ServerOptions serverOptions;
  serverOptions.engine = engineOptions;
  auto server = Server::Start(serverOptions);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto wireFirst = (*client)->Subscribe(admitted);
  EXPECT_TRUE(wireFirst.ok()) << wireFirst.status().ToString();
  auto wireSecond = (*client)->Subscribe(rejected);
  ASSERT_FALSE(wireSecond.ok());
  EXPECT_EQ(wireSecond.status().code(), StatusCode::kResourceExhausted)
      << wireSecond.status().ToString();

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("admission_rejects=1\n"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("memory_budget_bytes=" + std::to_string(price)),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("predicted_peak_bytes="), std::string::npos);
}

// engine = "auto" over TCP: the daemon accepts the meta-engine and its
// verdict stream matches a direct auto engine fed the same document.
TEST(AdmissionTest, AutoEngineOverTcp) {
  ServerOptions serverOptions;
  serverOptions.engine.engine = "auto";
  auto server = Server::Start(serverOptions);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto linear = (*client)->Subscribe("//m/body");
  ASSERT_TRUE(linear.ok());
  auto predicate = (*client)->Subscribe("//m[h]/body");
  ASSERT_TRUE(predicate.ok());

  const EventStream events = GenerateDeepRecursionDocument(8);
  auto xml = EventsToXml(events);
  ASSERT_TRUE(xml.ok());
  ASSERT_TRUE((*client)->Feed(*xml).ok());
  auto doc = (*client)->FinishDocument();
  ASSERT_TRUE(doc.ok());

  std::map<uint32_t, bool> wireVerdicts;
  for (const ClientEvent& event : (*client)->TakeEvents()) {
    if (event.kind != ClientEvent::Kind::kDocDone) continue;
    for (const auto& [sub, verdict] : event.verdicts) {
      wireVerdicts[sub] = verdict;
    }
  }
  ASSERT_EQ(wireVerdicts.size(), 2u);

  auto direct = Engine::Create("auto");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE((*direct)->Subscribe("linear", "//m/body").ok());
  ASSERT_TRUE((*direct)->Subscribe("predicate", "//m[h]/body").ok());
  auto expected = (*direct)->FilterEvents(events);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(wireVerdicts[*linear], (*expected)[0]);
  EXPECT_EQ(wireVerdicts[*predicate], (*expected)[1]);
}

}  // namespace
}  // namespace xpstream
