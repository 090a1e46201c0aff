#include "workloads.h"

#include <memory>
#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/stats.h"
#include "xml/writer.h"
#include "xpath/evaluator.h"
#include "xpstream/query.h"

namespace tripbench {

using xpstream::DeliveryMode;
using xpstream::Random;
using xpstream::Result;
using xpstream::Status;
using xpstream::StringPrintf;
using xpstream::XmlDocument;

namespace {

using Trees = std::vector<std::unique_ptr<XmlDocument>>;

// Corpus sizes. Documents are sent round-robin, so the corpus must be
// large enough that per-seed variation in document size averages out
// within one run; the deep documents are few because each is large.
constexpr size_t kBibDocuments = 512;
constexpr size_t kBibQueries = 64;
constexpr size_t kDissemDocuments = 2048;
constexpr size_t kDissemQueries = 1024;
// The random trees' sizes are heavy-tailed, and the few largest set the
// latency tail; redrawing trees outside this element range gives every
// seed the same tail.
constexpr size_t kDissemMinElements = 8;
constexpr size_t kDissemMaxElements = 128;
constexpr size_t kDeepDocuments = 12;
constexpr size_t kDeepMessages = 96;
constexpr size_t kDeepRecursion = 64;

/// Appends `query` when its text is new.
void AddDistinct(std::set<std::string>* seen, std::vector<std::string>* out,
                 std::string query) {
  if (seen->insert(query).second) out->push_back(std::move(query));
}

/// BibliographySubscriptions plus seeded value-predicate variants of the
/// same shapes (thresholds, compared values, output step), all inside
/// the frontier fragment, until `count` distinct texts. The shapes are
/// taken in turn, so every seed gets the same mix of query shapes.
std::vector<std::string> BibliographyQueries(Random* rng, size_t count) {
  static const char* const kLast[] = {"baryossef", "fontoura", "josifovski",
                                      "vardi", "fagin"};
  static const char* const kWords[] = {"data", "streams", "logic", "systems",
                                       "queries"};
  static const char* const kPublishers[] = {"acm", "ieee", "elsevier"};
  static const char* const kOutputs[] = {"title", "year", "price"};
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (std::string& query : xpstream::BibliographySubscriptions()) {
    AddDistinct(&seen, &out, std::move(query));
  }
  for (size_t shape = 0; out.size() < count; ++shape) {
    const char* output = kOutputs[rng->Uniform(3)];
    const int price = 10 + static_cast<int>(rng->Uniform(90));
    const int year = 1990 + static_cast<int>(rng->Uniform(20));
    std::string query;
    switch (shape % 6) {
      case 0:
        query = StringPrintf("/book[price < %d]/%s", price, output);
        break;
      case 1:
        query = StringPrintf("/book[year > %d and price < %d]/%s", year,
                             price, output);
        break;
      case 2:
        query = StringPrintf("/book[.//last = \"%s\" and year > %d]/%s",
                             kLast[rng->Uniform(5)], year, output);
        break;
      case 3:
        query = StringPrintf("/book[@publisher = \"%s\" and price > %d]/%s",
                             kPublishers[rng->Uniform(3)], price, output);
        break;
      case 4:
        query = StringPrintf("/book[contains(title, \"%s\") and year < %d]/%s",
                             kWords[rng->Uniform(5)], year, output);
        break;
      default:
        query = StringPrintf(
            "/book[author[last = \"%s\" and first] and price > %d]/%s",
            kLast[rng->Uniform(5)], price, output);
        break;
    }
    AddDistinct(&seen, &out, std::move(query));
  }
  return out;
}

/// The four MessageFeedSubscriptions shapes, each with priority
/// thresholds 1, 3, 5 and 7. The set is the same for every seed: on
/// these documents the frontier engine's cost depends strongly on which
/// queries can match, so seeded thresholds would make the seed, not the
/// code, decide the result.
std::vector<std::string> MessageFeedQueries() {
  static const char* const kShapes[] = {
      "//msg[header/priority > %d and body]",
      "/feed/msg[.//priority > %d]",
      "//msg[body and header/priority < %d]",
      "//msg[header[from and priority > %d] and msg]",
  };
  std::vector<std::string> out;
  for (const char* shape : kShapes) {
    for (int priority = 1; priority < 9; priority += 2) {
      out.push_back(StringPrintf(shape, priority));
    }
  }
  return out;
}

/// The MakeDisseminationSweep shape with the benchmark's seed: distinct
/// random linear paths over the 4-name pool.
std::vector<std::string> LinearQueries(Random* rng, size_t count) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  while (out.size() < count) {
    auto query =
        xpstream::GenerateLinearQuery(rng, 1 + rng->Uniform(5), 0.35, 0.1, 4);
    if (query.ok()) AddDistinct(&seen, &out, (*query)->ToString());
  }
  return out;
}

/// Serializes the trees and evaluates every query on every tree.
Status Finish(const Trees& trees, const std::vector<std::string>& texts,
              Workload* w) {
  std::vector<xpstream::CompiledQuery> compiled;
  for (const std::string& text : texts) {
    auto query = xpstream::CompileQuery(text);
    if (!query.ok()) return query.status();
    compiled.push_back(std::move(query).value());
  }
  for (const auto& tree : trees) {
    auto xml = xpstream::DocumentToXml(*tree);
    if (!xml.ok()) return xml.status();
    w->docs.push_back(std::move(xml).value());
    std::vector<bool> verdicts;
    verdicts.reserve(compiled.size());
    for (const xpstream::CompiledQuery& query : compiled) {
      verdicts.push_back(xpstream::BoolEval(*query.query(), *tree));
    }
    w->expected.push_back(std::move(verdicts));
  }
  return Status::OK();
}

}  // namespace

double Workload::MeanDocBytes() const {
  double total = 0;
  for (const std::string& doc : docs) total += static_cast<double>(doc.size());
  return docs.empty() ? 0 : total / static_cast<double>(docs.size());
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  // Independent streams for queries and documents, so changing one
  // corpus size never reshuffles the other.
  Random query_rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Random doc_rng(seed * 0x9e3779b97f4a7c15ull + 2);
  std::vector<std::string> texts;
  Trees trees;

  if (name == "bib-fanout") {
    w.engine = "auto";
    w.subscriber_conns = 2;
    texts = BibliographyQueries(&query_rng, kBibQueries);
    for (size_t i = 0; i < texts.size(); ++i) {
      // Alternate delivery modes: half the population is kEarliest.
      w.queries.push_back({texts[i], i % 2 == 0 ? DeliveryMode::kEarliest
                                                : DeliveryMode::kAtEnd});
    }
    trees = xpstream::GenerateBibliographyCorpus(kBibDocuments, doc_rng.Next());
  } else if (name == "dissem-1k") {
    w.engine = "nfa_index";
    w.pipeline_workers = 2;
    w.publishers = 2;
    texts = LinearQueries(&query_rng, kDissemQueries);
    for (const std::string& text : texts) {
      w.queries.push_back({text, DeliveryMode::kEarliest});
    }
    xpstream::DocGenOptions options;
    options.max_depth = 7;
    options.name_pool = 4;
    options.names = {"s0", "s1", "s2", "s3"};
    while (trees.size() < kDissemDocuments) {
      auto tree = xpstream::GenerateRandomDocument(&doc_rng, options);
      const size_t elements = xpstream::ComputeDocumentStats(*tree).element_count;
      if (elements >= kDissemMinElements && elements <= kDissemMaxElements) {
        trees.push_back(std::move(tree));
      }
    }
  } else if (name == "deep-early") {
    w.engine = "frontier";
    w.chunk_bytes = 16384;
    texts = MessageFeedQueries();
    for (const std::string& text : texts) {
      w.queries.push_back({text, DeliveryMode::kEarliest});
    }
    for (size_t i = 0; i < kDeepDocuments; ++i) {
      trees.push_back(xpstream::GenerateMessageFeed(kDeepMessages,
                                                    kDeepRecursion, &doc_rng));
    }
  } else {
    return Status::NotFound("unknown workload: " + name);
  }
  XPS_RETURN_IF_ERROR(Finish(trees, texts, &w));
  return w;
}

}  // namespace tripbench
