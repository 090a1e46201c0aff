#include "workload/scenarios.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "common/string_util.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"

namespace xpstream {

namespace {

const char* kTitles[] = {"data", "streams", "logic", "systems", "queries"};
const char* kAuthors[] = {"baryossef", "fontoura", "josifovski", "vardi",
                          "fagin"};
const char* kPublishers[] = {"acm", "ieee", "elsevier"};
const char* kDigits[] = {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"};

/// "n<i>" with process lifetime: generated event streams view their
/// text (see the lifetime contract in xml/event.h), so it must outlive
/// them. A deque never moves its elements, so earlier views survive
/// growth.
std::string_view ItemName(size_t i) {
  static std::mutex mu;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  while (names.size() <= i) names.push_back(StringPrintf("n%zu", names.size()));
  return names[i];
}

}  // namespace

std::unique_ptr<XmlDocument> GenerateBookDocument(Random* rng) {
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* book = doc->root()->AddElement("book");
  book->AddAttribute("publisher", kPublishers[rng->Uniform(3)]);
  XmlNode* title = book->AddElement("title");
  title->AddText(std::string(kTitles[rng->Uniform(5)]) + " " +
                 std::string(kTitles[rng->Uniform(5)]));
  size_t authors = 1 + rng->Uniform(3);
  for (size_t i = 0; i < authors; ++i) {
    XmlNode* author = book->AddElement("author");
    XmlNode* last = author->AddElement("last");
    last->AddText(kAuthors[rng->Uniform(5)]);
    XmlNode* first = author->AddElement("first");
    first->AddText(rng->NextName(4));
  }
  XmlNode* year = book->AddElement("year");
  year->AddText(StringPrintf("%d", (int)(1990 + rng->Uniform(20))));
  XmlNode* price = book->AddElement("price");
  price->AddText(StringPrintf("%d", (int)(10 + rng->Uniform(90))));
  doc->Index();
  return doc;
}

std::vector<std::unique_ptr<XmlDocument>> GenerateBibliographyCorpus(
    size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<std::unique_ptr<XmlDocument>> corpus;
  corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    corpus.push_back(GenerateBookDocument(&rng));
  }
  return corpus;
}

std::vector<std::string> BibliographySubscriptions() {
  return {
      "/book[price < 30]/title",
      "/book[year > 2000 and price < 60]/title",
      "/book[author/last = \"vardi\"]/title",
      "/book[.//last = \"fagin\" and year > 1995]/title",
      "/book[@publisher = \"acm\"]/title",
      "/book[contains(title, \"streams\")]/year",
      "/book[author[last and first] and price > 50]/title",
  };
}

std::unique_ptr<XmlDocument> GenerateMessageFeed(size_t messages,
                                                 size_t recursion,
                                                 Random* rng) {
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* feed = doc->root()->AddElement("feed");
  for (size_t i = 0; i < messages; ++i) {
    XmlNode* msg = feed->AddElement("msg");
    size_t depth = rng->Uniform(recursion + 1);
    XmlNode* current = msg;
    for (size_t level = 0;; ++level) {
      XmlNode* header = current->AddElement("header");
      XmlNode* from = header->AddElement("from");
      from->AddText(rng->NextName(5));
      XmlNode* prio = header->AddElement("priority");
      prio->AddText(StringPrintf("%d", (int)rng->Uniform(10)));
      if (level >= depth) {
        XmlNode* body = current->AddElement("body");
        body->AddText(rng->NextName(8));
        break;
      }
      // Forwarded message: envelopes nest — the recursive hard case.
      current = current->AddElement("msg");
    }
  }
  doc->Index();
  return doc;
}

std::vector<std::string> MessageFeedSubscriptions() {
  return {
      "//msg[header/priority > 7 and body]",
      "//msg[header[from and priority] and msg]",
      "/feed/msg[.//priority > 8]",
      "//msg[body and header/priority < 2]",
  };
}

EventStream GenerateDeepRecursionDocument(size_t depth) {
  EventStream events;
  events.reserve(4 * depth + 8);
  events.push_back(Event::StartDocument());
  for (size_t level = 0; level < depth; ++level) {
    events.push_back(Event::StartElement("m"));
    events.push_back(Event::StartElement("h"));
    events.push_back(Event::Text("x"));
    events.push_back(Event::EndElement("h"));
  }
  events.push_back(Event::StartElement("body"));
  events.push_back(Event::Text("payload"));
  events.push_back(Event::EndElement("body"));
  for (size_t level = 0; level < depth; ++level) {
    events.push_back(Event::EndElement("m"));
  }
  events.push_back(Event::EndDocument());
  return events;
}

std::vector<std::string> DeepRecursionSubscriptions() {
  return {
      "//m/body",
      "//m[h]/body",
      "//m[h and m]",
      "//m[h = \"x\" and body]",
  };
}

EventStream GenerateWideFanoutDocument(size_t fanout) {
  EventStream events;
  events.reserve(8 * fanout + 4);
  events.push_back(Event::StartDocument());
  events.push_back(Event::StartElement("root"));
  for (size_t i = 0; i < fanout; ++i) {
    events.push_back(Event::StartElement("item"));
    events.push_back(Event::StartElement("name"));
    events.push_back(Event::Text(ItemName(i)));
    events.push_back(Event::EndElement("name"));
    events.push_back(Event::StartElement("val"));
    events.push_back(Event::Text(kDigits[i % 10]));
    events.push_back(Event::EndElement("val"));
    events.push_back(Event::EndElement("item"));
  }
  events.push_back(Event::EndElement("root"));
  events.push_back(Event::EndDocument());
  return events;
}

std::vector<std::string> WideFanoutSubscriptions() {
  return {
      "/root/item/name",
      "/root/item[val = \"3\"]/name",
      "//item[name and val > 7]",
      "/root/item[name and val]",
  };
}

DisseminationSweepWorkload MakeDisseminationSweep(size_t num_queries,
                                                  size_t num_docs) {
  DisseminationSweepWorkload workload;
  Random query_rng(7);
  workload.queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    auto query = GenerateLinearQuery(&query_rng, 1 + query_rng.Uniform(5),
                                     0.35, 0.1, 4);
    if (!query.ok()) {
      // Silently shrinking the corpus would let the two sweep benches
      // diverge; the generator cannot fail for these parameters, so a
      // failure here is a library bug worth a loud stop.
      std::fprintf(stderr, "MakeDisseminationSweep: query generation failed: %s\n",
                   query.status().ToString().c_str());
      std::abort();
    }
    workload.queries.push_back((*query)->ToString());
  }
  Random doc_rng(42);
  DocGenOptions options;
  options.max_depth = 7;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  workload.documents.reserve(num_docs);
  workload.storage.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    // The workload keeps the tree: the stream's events view its nodes.
    workload.storage.push_back(GenerateRandomDocument(&doc_rng, options));
    workload.documents.push_back(workload.storage.back()->ToEvents());
  }
  return workload;
}

ChurnWorkload MakeChurnWorkload(size_t num_queries, size_t duplication,
                                size_t num_docs, uint64_t seed) {
  ChurnWorkload workload;
  Random query_rng(seed * 0x9e3779b97f4a7c15ull + 7);
  workload.queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    auto query = GenerateLinearQuery(&query_rng, 1 + query_rng.Uniform(5),
                                     0.35, 0.1, 4);
    if (!query.ok()) {
      // Same contract as MakeDisseminationSweep: the generator cannot
      // fail for these parameters, so fail loudly instead of silently
      // shrinking the dedup universe.
      std::fprintf(stderr, "MakeChurnWorkload: query generation failed: %s\n",
                   query.status().ToString().c_str());
      std::abort();
    }
    workload.queries.push_back((*query)->ToString());
  }
  Random doc_rng(seed + 42);
  DocGenOptions options;
  options.max_depth = 7;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  workload.documents.reserve(num_docs);
  workload.storage.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    // The workload keeps the tree: the stream's events view its nodes.
    workload.storage.push_back(GenerateRandomDocument(&doc_rng, options));
    workload.documents.push_back(workload.storage.back()->ToEvents());
  }

  Random op_rng(seed + 1001);
  std::vector<std::pair<std::string, size_t>> live;  // (id, query index)
  size_t next_id = 0;
  auto subscribe = [&](size_t query_index) {
    ChurnWorkload::Op op;
    op.kind = ChurnWorkload::OpKind::kSubscribe;
    op.index = query_index;
    op.id = "c" + std::to_string(next_id++);
    live.emplace_back(op.id, query_index);
    workload.ops.push_back(std::move(op));
  };
  for (size_t dup = 0; dup < duplication; ++dup) {
    for (size_t q = 0; q < num_queries; ++q) subscribe(q);
  }
  const size_t churn_per_doc = std::max<size_t>(
      1, num_queries * duplication / (4 * std::max<size_t>(1, num_docs)));
  for (size_t doc = 0; doc < num_docs; ++doc) {
    // Drain one query's whole subscriber group — every last-subscriber
    // removal tombstones an evaluation slot, so each round exercises
    // the tombstone path, not just refcount decrements...
    const size_t target = op_rng.Uniform(num_queries);
    for (size_t i = 0; i < live.size();) {
      if (live[i].second != target) {
        ++i;
        continue;
      }
      ChurnWorkload::Op op;
      op.kind = ChurnWorkload::OpKind::kUnsubscribe;
      op.id = std::move(live[i].first);
      live[i] = std::move(live.back());
      live.pop_back();
      workload.ops.push_back(std::move(op));
    }
    // ...then top the population back up with random queries (possibly
    // the drained one, which then lands in a fresh slot).
    for (size_t i = 0; i < churn_per_doc; ++i) {
      subscribe(op_rng.Uniform(num_queries));
    }
    if (num_docs >= 2 && doc == num_docs / 2) {
      ChurnWorkload::Op op;
      op.kind = ChurnWorkload::OpKind::kCompact;
      workload.ops.push_back(std::move(op));
    }
    ChurnWorkload::Op op;
    op.kind = ChurnWorkload::OpKind::kDocument;
    op.index = doc;
    workload.ops.push_back(std::move(op));
  }
  return workload;
}

std::string BlowupQuery(size_t k) {
  std::string text = "//a";
  for (size_t i = 0; i < k; ++i) text += "/*";
  return text;
}

EventStream GenerateBlowupDocument(size_t depth) {
  EventStream events;
  events.push_back(Event::StartDocument());
  // Preorder over the complete binary tree, iteratively: at `level`
  // with path code `path`, bit i of path picks the name of level i.
  auto emit = [&](auto&& self, size_t level, uint64_t path) -> void {
    events.push_back(
        Event::StartElement((path & 1) == 0 ? "a" : "x"));
    if (level + 1 < depth) {
      self(self, level + 1, 0);  // left child: 'a'
      self(self, level + 1, 1);  // right child: 'x'
    }
    events.push_back(Event::EndElement((path & 1) == 0 ? "a" : "x"));
  };
  if (depth > 0) emit(emit, 0, 0);  // the root is an 'a'
  events.push_back(Event::EndDocument());
  return events;
}

}  // namespace xpstream
