// Shared frontier walks are exact. The frontier engine runs one walk per
// query shape, with per-member match bits and value tests; its
// reference is a FilterBankMatcher over one-member FrontierFilters,
// which evaluates every subscription alone. Both are fed the same
// events, and must agree on the whole OnSlotMatched(slot, ordinal)
// sequence. The shared matcher's reports are its verdicts: no slot may
// be reported twice, and a slot reported matched exactly when the tree
// evaluator (BoolEval) says so.
//
// A family is one base query plus mutants of the same shape: literals,
// comparison operators and contains/starts-with are rewritten, the
// query tree is not. Bases come from three seeded sources: random
// value-heavy twigs over random documents, the bibliography
// subscriptions over the book corpus, and the message-feed
// subscriptions over recursive feeds. Every 100th family has more than
// kMaxMembers members, so one shape spans two walks, and one case mixes
// the bibliography shapes so that one event's reports come from several
// walks. Every family runs with the cut off and on, with
// Unsubscribe/Subscribe churn between documents. A facade check runs families through Engine over
// bytes in random chunk widths, whole-document bytes and SAX events,
// with CompactSubscriptions churn. Each source runs a fixed number of
// families, stopping early only past a time budget, so sanitizer builds
// stay bounded.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/matching.h"
#include "common/random.h"
#include "common/string_util.h"
#include "stream/engine_registry.h"
#include "stream/frontier_filter.h"
#include "stream/matcher.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/writer.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

constexpr std::chrono::seconds kBudget(10);

/// True once `start` is more than the time budget ago.
bool OverBudget(std::chrono::steady_clock::time_point start) {
  return std::chrono::steady_clock::now() - start > kBudget;
}

using Documents = std::vector<std::unique_ptr<XmlDocument>>;

/// The text and attribute values of `docs`, plus "" and " ": the
/// string literals mutants draw from, so that some of them match.
std::vector<std::string> Vocabulary(const Documents& docs) {
  std::set<std::string> words = {"", " ", "a", "x"};
  for (const auto& doc : docs) {
    for (const Event& event : doc->ToEvents()) {
      if (event.type == EventType::kText ||
          event.type == EventType::kAttribute) {
        words.insert(std::string(event.text));
      }
    }
  }
  return std::vector<std::string>(words.begin(), words.end());
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-' || c == '.';
}

/// Rewrites the literals, comparison operators and contains /
/// starts-with calls of `text` at random; steps are left alone, so
/// the query tree stays the same.
std::string Mutate(const std::string& text, const std::vector<std::string>& words,
                   Random* rng) {
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  static const char* const kNumbers[] = {"0",  "1",  "2",    "3",    "5",
                                         "7",  "-1", "2.5",  "1995", "2000",
                                         "30", "60", "-0",   "8"};
  static const std::string kContains = "contains(";
  static const std::string kStartsWith = "starts-with(";
  std::string out;
  for (size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"') {
      const size_t end = text.find('"', i + 1);
      out += '"' + words[rng->Uniform(words.size())] + '"';
      i = end + 1;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 &&
               (i == 0 || !IsNameChar(text[i - 1]))) {
      size_t end = i;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
              text[end] == '.')) {
        ++end;
      }
      out += kNumbers[rng->Uniform(sizeof(kNumbers) / sizeof(kNumbers[0]))];
      i = end;
    } else if (c == '<' || c == '>' || c == '=' || c == '!') {
      out += kOps[rng->Uniform(6)];
      i += i + 1 < text.size() && text[i + 1] == '=' ? 2 : 1;
    } else if (text.compare(i, kContains.size(), kContains) == 0 ||
               text.compare(i, kStartsWith.size(), kStartsWith) == 0) {
      i += c == 'c' ? kContains.size() : kStartsWith.size();
      out += rng->Bernoulli(0.5) ? kContains : kStartsWith;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

/// Queries of one shape: a base query and its mutants.
class Family {
 public:
  Family(std::string base, std::vector<std::string> words, uint64_t seed)
      : base_(std::move(base)), words_(std::move(words)), rng_(seed) {
    auto query = ParseQuery(base_);
    EXPECT_TRUE(query.ok()) << base_;
    if (query.ok()) key_ = FrontierFilter::ShapeKey(**query);
  }

  /// A new mutant of the base, parsed; owned by the family. Mutants
  /// whose text fails to parse or changes the shape are redrawn.
  const Query* Next() {
    for (int attempt = 0; attempt < 20; ++attempt) {
      const std::string text =
          owned_.empty() ? base_ : Mutate(base_, words_, &rng_);
      auto query = ParseQuery(text);
      if (!query.ok() || FrontierFilter::ShapeKey(**query) != key_) continue;
      owned_.push_back(std::move(query).value());
      return owned_.back().get();
    }
    ADD_FAILURE() << "no mutant of " << base_;
    return nullptr;
  }

  Random* rng() { return &rng_; }

 private:
  std::string base_;
  std::vector<std::string> words_;
  Random rng_;
  std::string key_;
  std::vector<std::unique_ptr<Query>> owned_;
};

class RecordingSink : public MatchSink {
 public:
  void OnSlotMatched(size_t slot, size_t ordinal) override {
    reports.emplace_back(slot, ordinal);
  }
  std::vector<std::pair<size_t, size_t>> reports;
};

/// The reference: the parent frontier matcher, one filter per slot.
std::unique_ptr<Matcher> NewFilterBank(SymbolTable* symbols) {
  return std::make_unique<FilterBankMatcher>(
      "frontier",
      [](const Query* query,
         SymbolTable* table) -> Result<std::unique_ptr<StreamFilter>> {
        auto filter = FrontierFilter::Create(query, table);
        if (!filter.ok()) return filter.status();
        return std::unique_ptr<StreamFilter>(std::move(filter).value());
      },
      symbols);
}

/// Runs families through the shared-walk matcher and the reference bank
/// side by side.
class GroupParity {
 public:
  explicit GroupParity(bool short_circuit) {
    auto shared = CreateMatcher("frontier", &symbols_);
    EXPECT_TRUE(shared.ok());
    shared_ = std::move(shared).value();
    bank_ = NewFilterBank(&symbols_);
    for (Matcher* matcher : {shared_.get(), bank_.get()}) {
      matcher->EnableShortCircuit(short_circuit);
    }
    shared_->SetSink(&shared_sink_);
    bank_->SetSink(&bank_sink_);
  }

  /// Subscribes `size` members of each family, taking the families in
  /// turn, so that the slots of different shapes interleave; then runs
  /// `docs` with churn between documents.
  void Run(const std::vector<Family*>& families, size_t size,
           const Documents& docs) {
    for (size_t i = 0; i < size; ++i) {
      for (Family* family : families) Subscribe(family->Next());
    }
    for (const auto& doc : docs) {
      Check(*doc);
      if (::testing::Test::HasFailure()) return;
      Churn(families[families[0]->rng()->Uniform(families.size())]);
    }
  }

  size_t verdicts() const { return verdicts_; }

 private:
  void Subscribe(const Query* query) {
    if (query == nullptr) return;
    const size_t slot = queries_.size();
    const Status shared = shared_->Subscribe(slot, query);
    const Status bank = bank_->Subscribe(slot, query);
    ASSERT_EQ(shared.code(), bank.code()) << query->ToString();
    ASSERT_TRUE(shared.ok()) << query->ToString() << ": " << shared.ToString();
    queries_.push_back(query);
  }

  void Churn(Family* family) {
    Random* rng = family->rng();
    if (rng->Bernoulli(0.5) && !queries_.empty()) {
      const size_t slot = rng->Uniform(queries_.size());
      if (queries_[slot] != nullptr) {
        ASSERT_TRUE(shared_->Unsubscribe(slot).ok());
        ASSERT_TRUE(bank_->Unsubscribe(slot).ok());
        queries_[slot] = nullptr;
      }
    }
    if (rng->Bernoulli(0.5)) Subscribe(family->Next());
  }

  void Check(const XmlDocument& doc) {
    shared_sink_.reports.clear();
    bank_sink_.reports.clear();
    const EventStream events = doc.ToEvents();
    for (const Event& event : events) {
      const Symbol name_sym = ResolveEventName(event, &symbols_);
      const Status shared = shared_->OnSymbolizedEvent(event, name_sym);
      const Status bank = bank_->OnSymbolizedEvent(event, name_sym);
      ASSERT_TRUE(shared.ok()) << shared.ToString();
      ASSERT_TRUE(bank.ok()) << bank.ToString();
    }
    // The messages are built only on failure.
    EXPECT_EQ(shared_sink_.reports, bank_sink_.reports) << Describe(events);
    std::vector<bool> reported(queries_.size(), false);
    for (const auto& report : shared_sink_.reports) {
      ASSERT_LT(report.first, reported.size());
      EXPECT_FALSE(reported[report.first])
          << "slot " << report.first << " reported twice\n"
          << Describe(events);
      reported[report.first] = true;
    }
    for (size_t slot = 0; slot < queries_.size(); ++slot) {
      const bool expected =
          queries_[slot] != nullptr && BoolEval(*queries_[slot], doc);
      EXPECT_EQ(reported[slot], expected)
          << "slot " << slot << "\n" << Describe(events);
      ++verdicts_;
    }
  }

  std::string Describe(const EventStream& events) const {
    std::string out = "queries:";
    for (size_t slot = 0; slot < queries_.size(); ++slot) {
      out += StringPrintf("\n  %zu: ", slot) +
             (queries_[slot] == nullptr ? "(unsubscribed)"
                                        : queries_[slot]->ToString());
    }
    return out + "\ndoc: " + EventStreamToString(events);
  }

  SymbolTable symbols_;
  std::unique_ptr<Matcher> shared_;
  std::unique_ptr<Matcher> bank_;
  RecordingSink shared_sink_;
  RecordingSink bank_sink_;
  std::vector<const Query*> queries_;  ///< by slot; nullptr = unsubscribed
  size_t verdicts_ = 0;
};

/// Runs one family per base text over its documents, with the cut off
/// and on; every 100th family, the first included, has more than
/// kMaxMembers members.
void RunFamilies(const std::vector<std::string>& bases,
                 const std::vector<Documents>& docs_per_base, uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  size_t families = 0;
  size_t verdicts = 0;
  for (size_t i = 0; i < bases.size() && !OverBudget(start); ++i) {
    const Documents& docs = docs_per_base[i];
    const std::vector<std::string> words = Vocabulary(docs);
    for (bool short_circuit : {false, true}) {
      Family family(bases[i], words, seed + i);
      Random sizes(seed + 1000 + i);
      const size_t size = i % 100 == 0 ? FrontierFilter::kMaxMembers + 6
                                       : 2 + sizes.Uniform(10);
      GroupParity parity(short_circuit);
      parity.Run({&family}, size, docs);
      verdicts += parity.verdicts();
      ++families;
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "family of " << bases[i]
                      << " short_circuit=" << short_circuit;
        return;
      }
    }
  }
  EXPECT_GT(families, 0u);
  EXPECT_GT(verdicts, families);
}

/// Random bases from `qopts` inside the fragment, each with `docs`
/// documents from `dopts`.
void RunRandomFamilies(uint64_t seed, size_t families, size_t docs,
                       const QueryGenOptions& qopts,
                       const DocGenOptions& dopts) {
  Random rng(seed);
  std::vector<std::string> bases;
  std::vector<Documents> docs_per_base;
  while (bases.size() < families) {
    auto query = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(query.ok());
    if (!FrontierFilter::Create(query->get()).ok()) continue;
    bases.push_back((*query)->ToString());
    Documents family_docs;
    for (size_t d = 0; d < docs; ++d) {
      family_docs.push_back(GenerateRandomDocument(&rng, dopts));
    }
    docs_per_base.push_back(std::move(family_docs));
  }
  RunFamilies(bases, docs_per_base, seed + 1);
}

TEST(FrontierGroupTest, RandomValueHeavyTwigs) {
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.value_predicate_prob = 0.9;
  DocGenOptions dopts;
  dopts.max_depth = 5;
  dopts.name_pool = 3;
  dopts.text_prob = 0.9;
  dopts.attr_prob = 0.4;
  RunRandomFamilies(41, 1200, 4, qopts, dopts);
}

TEST(FrontierGroupTest, RecursiveTwigs) {
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.name_pool = 2;
  qopts.descendant_prob = 0.6;
  qopts.value_predicate_prob = 0.8;
  DocGenOptions dopts;
  dopts.max_depth = 7;
  dopts.name_pool = 2;  // nearly every element shares a name
  dopts.text_prob = 0.8;
  RunRandomFamilies(47, 800, 3, qopts, dopts);
}

TEST(FrontierGroupTest, BibliographySubscriptions) {
  std::vector<std::string> bases;
  std::vector<Documents> docs;
  for (size_t round = 0; round < 40; ++round) {
    for (std::string& base : BibliographySubscriptions()) {
      bases.push_back(std::move(base));
      docs.push_back(GenerateBibliographyCorpus(8, 59 + bases.size()));
    }
  }
  RunFamilies(bases, docs, 61);
}

TEST(FrontierGroupTest, MessageFeedSubscriptions) {
  Random rng(67);
  std::vector<std::string> bases;
  std::vector<Documents> docs;
  for (size_t round = 0; round < 60; ++round) {
    for (std::string& base : MessageFeedSubscriptions()) {
      bases.push_back(std::move(base));
      Documents feeds;
      for (size_t d = 0; d < 3; ++d) {
        feeds.push_back(
            GenerateMessageFeed(1 + rng.Uniform(5), rng.Uniform(8), &rng));
      }
      docs.push_back(std::move(feeds));
    }
  }
  RunFamilies(bases, docs, 71);
}

TEST(FrontierGroupTest, MixedShapesKeepTheSinkOrder) {
  // Slots of several shapes interleave, so one event's reports come
  // from several walks and must still reach the sink slot-ascending.
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> bases = BibliographySubscriptions();
  for (uint64_t round = 0; round < 40 && !OverBudget(start); ++round) {
    const Documents docs = GenerateBibliographyCorpus(8, 103 + round);
    const std::vector<std::string> words = Vocabulary(docs);
    for (bool short_circuit : {false, true}) {
      std::vector<std::unique_ptr<Family>> owned;
      std::vector<Family*> families;
      for (size_t i = 0; i < bases.size(); ++i) {
        owned.push_back(std::make_unique<Family>(
            bases[i], words, 107 + round * bases.size() + i));
        families.push_back(owned.back().get());
      }
      GroupParity parity(short_circuit);
      parity.Run(families, 1 + round % 5, docs);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FrontierGroupTest, WalkPeakStaysWithinTheBound) {
  // Thm 8.8 per walk: one walk holds one query's records, however many
  // members share it.
  Random rng(73);
  QueryGenOptions qopts;
  qopts.max_depth = 3;
  qopts.name_pool = 3;
  qopts.value_predicate_prob = 0.8;
  DocGenOptions dopts;
  dopts.max_depth = 6;
  dopts.name_pool = 3;
  size_t checked = 0;
  for (int i = 0; i < 120; ++i) {
    auto base = GenerateRandomQuery(&rng, qopts);
    ASSERT_TRUE(base.ok());
    if (!FrontierFilter::Create(base->get()).ok()) continue;
    const auto doc = GenerateRandomDocument(&rng, dopts);
    Family family((*base)->ToString(), Vocabulary({}), 79 + i);
    std::vector<const Query*> members = {family.Next()};
    auto shared = FrontierFilter::Create(members[0]);
    ASSERT_TRUE(shared.ok());
    while (members.size() < FrontierFilter::kMaxMembers) {
      const Query* query = family.Next();
      ASSERT_NE(query, nullptr);
      auto member = (*shared)->AddMember(query);
      ASSERT_TRUE(member.ok()) << member.status().ToString();
      EXPECT_EQ(*member, members.size());
      members.push_back(query);
    }
    ASSERT_TRUE(RunFilter(shared->get(), doc->ToEvents()).ok());
    const size_t bound =
        members[0]->size() * (PathRecursionDepth(*members[0], *doc) + 1);
    EXPECT_LE((*shared)->stats().table_entries().peak(), bound)
        << members[0]->ToString();
    auto matched = (*shared)->MatchedMembers();
    ASSERT_TRUE(matched.ok());
    for (size_t m = 0; m < members.size(); ++m) {
      EXPECT_EQ(((*matched >> m) & 1) != 0, BoolEval(*members[m], *doc))
          << members[m]->ToString();
    }
    ++checked;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(checked, 90u);
}

TEST(FrontierGroupTest, WalksStayOneShapeAndOneMemberWhereRequired) {
  auto a = ParseQuery("/book[price < 30]/title");
  auto b = ParseQuery("/book[price > \"40\"]/title");
  auto other = ParseQuery("/book[year < 30]/title");
  ASSERT_TRUE(a.ok() && b.ok() && other.ok());
  EXPECT_EQ(FrontierFilter::ShapeKey(**a), FrontierFilter::ShapeKey(**b));
  EXPECT_NE(FrontierFilter::ShapeKey(**a), FrontierFilter::ShapeKey(**other));

  auto walk = FrontierFilter::Create(a->get());
  ASSERT_TRUE(walk.ok());
  EXPECT_FALSE((*walk)->AddMember(other->get()).ok());
  ASSERT_TRUE((*walk)->AddMember(b->get()).ok());
  // Output collection and literal mode stay one-member.
  EXPECT_EQ((*walk)->EnableOutputCollection().code(), StatusCode::kUnsupported);
  EXPECT_EQ((*walk)->SetLiteralPseudocodeMode(true).code(),
            StatusCode::kUnsupported);
  auto collecting = FrontierFilter::Create(a->get());
  ASSERT_TRUE(collecting.ok());
  ASSERT_TRUE((*collecting)->EnableOutputCollection().ok());
  EXPECT_FALSE((*collecting)->AddMember(b->get()).ok());
  auto literal = FrontierFilter::Create(a->get());
  ASSERT_TRUE(literal.ok());
  ASSERT_TRUE((*literal)->SetLiteralPseudocodeMode(true).ok());
  EXPECT_FALSE((*literal)->AddMember(b->get()).ok());
  // A full walk takes no 65th member.
  while ((*walk)->num_members() < FrontierFilter::kMaxMembers) {
    ASSERT_TRUE((*walk)->AddMember(b->get()).ok());
  }
  EXPECT_FALSE((*walk)->AddMember(b->get()).ok());
}

/// The facade over families: bytes in random chunk widths, whole
/// bytes and SAX events, with Unsubscribe/Subscribe/CompactSubscriptions
/// churn between documents, against BoolEval.
void RunFacadeFamilies(const std::vector<std::string>& bases,
                       const Documents& docs, uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> words = Vocabulary(docs);
  size_t checked = 0;
  for (size_t i = 0; i < 20 * bases.size() && !OverBudget(start); ++i) {
    for (bool short_circuit : {false, true}) {
      EngineOptions options;
      options.engine = "frontier";
      options.short_circuit = short_circuit;
      auto engine = Engine::Create(options);
      ASSERT_TRUE(engine.ok());
      Family family(bases[i % bases.size()], words, seed + i);
      Random* rng = family.rng();
      std::vector<std::pair<std::string, const Query*>> subs;
      size_t next_id = 0;
      auto subscribe = [&]() {
        const Query* query = family.Next();
        ASSERT_NE(query, nullptr);
        const std::string id = "s" + std::to_string(next_id++);
        ASSERT_TRUE((*engine)->Subscribe(id, query->ToString()).ok())
            << query->ToString();
        subs.emplace_back(id, query);
      };
      for (size_t k = 0; k < 2 + rng->Uniform(12); ++k) subscribe();
      for (const auto& doc : docs) {
        const EventStream events = doc->ToEvents();
        auto xml = DocumentToXml(*doc);
        ASSERT_TRUE(xml.ok());
        std::vector<bool> verdicts;
        switch (rng->Uniform(3)) {
          case 0: {
            for (size_t at = 0; at < xml->size();) {
              const size_t width = 1 + rng->Uniform(64);
              ASSERT_TRUE((*engine)->Feed(xml->substr(at, width)).ok());
              at += width;
            }
            ASSERT_TRUE((*engine)->FinishDocument().ok());
            verdicts = (*engine)->last_verdicts();
            break;
          }
          case 1: {
            auto result = (*engine)->FilterXml(*xml);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            verdicts = *result;
            break;
          }
          default: {
            auto result = (*engine)->FilterEvents(events);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            verdicts = *result;
            break;
          }
        }
        ASSERT_EQ(verdicts.size(), subs.size());
        for (size_t s = 0; s < subs.size(); ++s) {
          EXPECT_EQ(verdicts[s], BoolEval(*subs[s].second, *doc))
              << subs[s].second->ToString() << "\ndoc: "
              << EventStreamToString(events);
          ++checked;
        }
        if (::testing::Test::HasFailure()) return;
        if (rng->Bernoulli(0.5) && !subs.empty()) {
          const size_t victim = rng->Uniform(subs.size());
          ASSERT_TRUE((*engine)->Unsubscribe(subs[victim].first).ok());
          subs.erase(subs.begin() + static_cast<ptrdiff_t>(victim));
        }
        if (rng->Bernoulli(0.5)) subscribe();
        if (rng->Bernoulli(0.3)) {
          ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FrontierGroupTest, FacadeBibliographyFamilies) {
  RunFacadeFamilies(BibliographySubscriptions(),
                    GenerateBibliographyCorpus(16, 83), 89);
}

TEST(FrontierGroupTest, FacadeMessageFeedFamilies) {
  Random rng(97);
  Documents feeds;
  for (size_t d = 0; d < 6; ++d) {
    feeds.push_back(GenerateMessageFeed(1 + rng.Uniform(4), d, &rng));
  }
  RunFacadeFamilies(MessageFeedSubscriptions(), feeds, 101);
}

}  // namespace
}  // namespace xpstream
