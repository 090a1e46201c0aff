// Pipelined ingestion over TCP (ServerOptions::pipeline_workers >= 2):
// K concurrent publisher connections stream documents through the
// EnginePool behind xpstreamd, and every completed document's verdicts
// and MATCH sequence — grouped by the pool-assigned document index the
// DOC_OK ack carries — are bit-identical to a serial Engine fed the
// same bytes, for every registered engine. Also under test: the
// per-connection in-flight model (two publishers mid-document at
// once), queue-full backpressure surfacing as a retryable
// kResourceExhausted at DOC_END, publisher death mid-document under
// load, the pipeline STATS keys, and destruction while workers still
// evaluate.
//
// The worker count honors XPSTREAM_PIPELINE_WORKERS (CI's TSan job
// re-runs this binary at several widths); defaults to 4.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"
#include "xpstream/server.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

size_t PipelineWorkersFromEnv() {
  const char* env = std::getenv("XPSTREAM_PIPELINE_WORKERS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 2) return static_cast<size_t>(parsed);
  }
  return 4;
}

std::vector<std::string> GeneratedQueries(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> queries;
  for (size_t i = 0; i < count; ++i) {
    auto query = GenerateLinearQuery(&rng, 1 + rng.Uniform(5), 0.35, 0.15, 4);
    EXPECT_TRUE(query.ok());
    queries.push_back((*query)->ToString());
  }
  return queries;
}

std::vector<std::string> XmlCorpus(size_t docs, uint64_t seed) {
  Random rng(seed);
  DocGenOptions options;
  options.max_depth = 6;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  std::vector<std::string> corpus;
  for (size_t i = 0; i < docs; ++i) {
    auto doc = GenerateRandomDocument(&rng, options);
    auto xml = DocumentToXml(*doc);
    EXPECT_TRUE(xml.ok());
    corpus.push_back(*xml);
  }
  return corpus;
}

DeliveryMode ModeOf(size_t q) {
  return q % 3 == 0 ? DeliveryMode::kAtEnd : DeliveryMode::kEarliest;
}

void FeedChunked(Client* client, const std::string& xml, size_t chunk) {
  if (chunk == 0 || chunk >= xml.size()) {
    ASSERT_TRUE(client->Feed(xml).ok());
    return;
  }
  for (size_t offset = 0; offset < xml.size(); offset += chunk) {
    ASSERT_TRUE(
        client->Feed(std::string_view(xml).substr(offset, chunk)).ok());
  }
}

// Polls STATS until `key` reaches `want`; fails the test on timeout.
void AwaitStat(Client* client, const std::string& key, uint64_t want) {
  const std::string needle = key + "=" + std::to_string(want) + "\n";
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    if (stats->find(needle) != std::string::npos) return;
    usleep(10 * 1000);
  }
  FAIL() << "stat never reached " << needle;
}

struct DocExpected {
  std::vector<std::pair<size_t, size_t>> matches;  // (sub, ordinal)
  std::vector<bool> verdicts;
};

struct MatchRecorder : ResultSink {
  std::vector<std::pair<size_t, size_t>> matches;
  void OnMatch(size_t sub, size_t, size_t ordinal) override {
    matches.emplace_back(sub, ordinal);
  }
};

// Runs `corpus` `rounds` times through a pipelined server on engine
// `name`, fed by `publishers` concurrent connections, and checks every
// document's MATCH sequence and DOC_DONE against a serial engine with
// the same subscriptions. Returns the number of MATCHes checked.
size_t ExpectPooledParity(const std::string& name,
                          const std::vector<std::string>& queries,
                          DeliveryMode (*mode_of)(size_t),
                          const std::vector<std::string>& corpus,
                          size_t publishers_count, size_t rounds) {
  const size_t chunk_sizes[] = {0, 1, 17};
  size_t checked_matches = 0;
  ServerOptions options;
  options.engine.engine = name;
  options.pipeline_workers = PipelineWorkersFromEnv();
  // Publishers do not wait for results, so a queue shorter than the run
  // could reject a document when the workers lag (they do under TSan).
  options.doc_queue_depth = corpus.size() * rounds;
  // The subscriber reads only after the last document is in, so its
  // outbox holds every push of the run (at most one MATCH per
  // subscription and one DOC_DONE per document); a smaller cap sheds.
  options.outbox_frames = std::max(
      options.outbox_frames, (queries.size() + 1) * corpus.size() * rounds);
  auto server = Server::Start(options);
  EXPECT_TRUE(server.ok()) << name;
  if (!server.ok()) return 0;

  auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(subscriber.ok()) << name;
  if (!subscriber.ok()) return 0;
  std::vector<uint32_t> wire_ids;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto id = (*subscriber)->Subscribe(queries[q], mode_of(q));
    EXPECT_TRUE(id.ok()) << name << " " << queries[q];
    if (!id.ok()) return 0;
    wire_ids.push_back(*id);
  }

  // Serial reference: one direct engine, same overlays the server
  // applies, same subscriptions in the same order.
  EngineOptions direct_options = options.engine;
  direct_options.max_element_depth = options.max_element_depth;
  direct_options.max_entity_expansion_bytes =
      options.max_entity_expansion_bytes;
  auto direct = Engine::Create(direct_options);
  EXPECT_TRUE(direct.ok()) << name;
  if (!direct.ok()) return 0;
  MatchRecorder recorder;
  (*direct)->SetSink(&recorder);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE((*direct)
                    ->Subscribe("q" + std::to_string(q), queries[q],
                                mode_of(q))
                    .ok())
        << name;
  }
  std::vector<DocExpected> expected;
  for (const std::string& xml : corpus) {
    recorder.matches.clear();
    auto verdicts = (*direct)->FilterXml(xml);
    EXPECT_TRUE(verdicts.ok()) << name;
    if (!verdicts.ok()) return 0;
    expected.push_back({recorder.matches, *verdicts});
  }

  // The publishers, each its own connection, racing over the corpus.
  std::mutex map_mutex;
  std::map<uint64_t, size_t> corpus_of_doc;
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> publishers;
  for (size_t t = 0; t < publishers_count; ++t) {
    publishers.emplace_back([&] {
      auto publisher = Client::Connect("127.0.0.1", (*server)->port());
      EXPECT_TRUE(publisher.ok());
      if (!publisher.ok()) return;
      while (true) {
        const size_t i = cursor.fetch_add(1);
        if (i >= corpus.size() * rounds) break;
        const size_t ci = i % corpus.size();
        FeedChunked(publisher->get(), corpus[ci], chunk_sizes[ci % 3]);
        auto doc = (*publisher)->FinishDocument();
        EXPECT_TRUE(doc.ok()) << doc.status().ToString();
        if (!doc.ok()) return;
        std::lock_guard<std::mutex> lock(map_mutex);
        corpus_of_doc[*doc] = ci;
      }
    });
  }
  for (std::thread& thread : publishers) thread.join();
  EXPECT_EQ(corpus_of_doc.size(), corpus.size() * rounds) << name;

  // Rendezvous with every document's asynchronous evaluation, then
  // compare per-document event groups. Within one document the
  // server preserves the engine's order (MATCHes, then DOC_DONE);
  // only the interleaving across documents is scheduling-dependent.
  for (const auto& [doc, ci] : corpus_of_doc) {
    EXPECT_TRUE((*subscriber)->WaitDocDone(doc).ok())
        << name << " doc " << doc;
  }
  std::map<uint64_t, std::vector<ClientEvent>> by_doc;
  for (ClientEvent& event : (*subscriber)->TakeEvents()) {
    by_doc[event.doc].push_back(std::move(event));
  }
  for (const auto& [doc, ci] : corpus_of_doc) {
    const std::vector<ClientEvent>& got = by_doc[doc];
    const DocExpected& want = expected[ci];
    EXPECT_EQ(got.size(), want.matches.size() + 1) << name << " doc " << doc;
    if (got.size() != want.matches.size() + 1) return checked_matches;
    for (size_t m = 0; m < want.matches.size(); ++m) {
      EXPECT_EQ(got[m].kind, ClientEvent::Kind::kMatch)
          << name << " doc " << doc << " event " << m;
      EXPECT_EQ(got[m].sub_id, wire_ids[want.matches[m].first])
          << name << " doc " << doc << " event " << m;
      EXPECT_EQ(got[m].ordinal, want.matches[m].second)
          << name << " doc " << doc << " event " << m;
    }
    checked_matches += want.matches.size();
    const ClientEvent& done = got.back();
    EXPECT_EQ(done.kind, ClientEvent::Kind::kDocDone) << name;
    EXPECT_EQ(done.verdicts.size(), want.verdicts.size()) << name;
    if (done.verdicts.size() != want.verdicts.size()) return checked_matches;
    for (size_t v = 0; v < want.verdicts.size(); ++v) {
      EXPECT_EQ(done.verdicts[v].first, wire_ids[v]) << name;
      EXPECT_EQ(done.verdicts[v].second, want.verdicts[v])
          << name << " doc " << doc;
    }
  }

  auto stats = (*subscriber)->Stats();
  EXPECT_TRUE(stats.ok());
  if (!stats.ok()) return checked_matches;
  EXPECT_NE(stats->find("pipeline_workers=" +
                        std::to_string(options.pipeline_workers) + "\n"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("queue_depth=" +
                        std::to_string(options.doc_queue_depth) + "\n"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("queue_peak="), std::string::npos);
  EXPECT_NE(stats->find("docs_in_flight="), std::string::npos);
  EXPECT_NE(stats->find("queue_rejects="), std::string::npos);
  EXPECT_NE(stats->find("documents_seen=" +
                        std::to_string(corpus.size() * rounds) + "\n"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("dropped_frames=0\n"), std::string::npos) << *stats;
  (*server)->Stop();
  return checked_matches;
}

// K = 4 concurrent publishers through a pipelined server produce, per
// document, exactly the serial engine's results — all five engines,
// mixed delivery modes, varied chunking.
TEST(ServerPipelineTest, ConcurrentPublishersParityAllEngines) {
  const std::vector<std::string> queries = GeneratedQueries(9, 20260808);
  const std::vector<std::string> corpus = XmlCorpus(8, 33);
  for (const std::string& name : Engine::AvailableEngines()) {
    ExpectPooledParity(name, queries, ModeOf, corpus, /*publishers=*/4,
                       /*rounds=*/2);
    if (::testing::Test::HasFailure()) return;
  }
}

// The dissemination shape (tripbench's dissem-1k): 1024 kEarliest
// linear queries over s0..s3 on nfa_index and two publishers. A document
// yields about 220 MATCHes (dissem-1k's run 234), so the loop often
// drains the pool's result mailbox in the middle of a document's records.
TEST(ServerPipelineTest, DisseminationScaleParity) {
  const std::vector<std::string> queries = GeneratedQueries(1024, 20261020);
  const std::vector<std::string> corpus = XmlCorpus(32, 1020);
  const size_t matches = ExpectPooledParity(
      "nfa_index", queries, [](size_t) { return DeliveryMode::kEarliest; },
      corpus, /*publishers=*/2, /*rounds=*/1);
  const double per_doc = static_cast<double>(matches) / corpus.size();
  std::printf("[ dissemination ] %.1f MATCHes per document over %zu\n",
              per_doc, corpus.size());
  EXPECT_GE(per_doc, 128.0);
}

// In pipelined mode documents are per-connection in flight: two
// publishers interleave chunks of different documents and both
// complete — the exact situation the serial service refuses.
TEST(ServerPipelineTest, PublishersStreamConcurrentDocuments) {
  ServerOptions options;
  options.engine.engine = "frontier";
  options.pipeline_workers = PipelineWorkersFromEnv();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(subscriber.ok());
  auto sub = (*subscriber)->Subscribe("//b", DeliveryMode::kAtEnd);
  ASSERT_TRUE(sub.ok());

  auto one = Client::Connect("127.0.0.1", (*server)->port());
  auto two = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());

  ASSERT_TRUE((*one)->Feed("<a><b/>").ok());
  ASSERT_TRUE((*two)->Feed("<a>").ok());
  ASSERT_TRUE((*one)->Feed("</a>").ok());
  ASSERT_TRUE((*two)->Feed("<c/></a>").ok());
  auto first = (*one)->FinishDocument();
  auto second = (*two)->FinishDocument();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(*first, *second);

  ASSERT_TRUE((*subscriber)->WaitDocDone(*first).ok());
  ASSERT_TRUE((*subscriber)->WaitDocDone(*second).ok());
  std::map<uint64_t, bool> verdict_of_doc;
  for (const ClientEvent& event : (*subscriber)->TakeEvents()) {
    if (event.kind != ClientEvent::Kind::kDocDone) continue;
    ASSERT_EQ(event.verdicts.size(), 1u);
    verdict_of_doc[event.doc] = event.verdicts[0].second;
  }
  EXPECT_TRUE(verdict_of_doc[*first]);    // has a <b>
  EXPECT_FALSE(verdict_of_doc[*second]);  // does not
  (*server)->Stop();
}

// A DOC_END that finds the pool queue full is answered with a
// kResourceExhausted ERROR — the document is dropped, the connection
// survives, and re-feeding after a drain succeeds. A flood against a
// depth-1 queue with slow (naive, tree-building) evaluation exercises
// the retry loop; every document lands exactly once.
TEST(ServerPipelineTest, QueueFullBackpressureIsRetryable) {
  ServerOptions options;
  options.engine.engine = "naive";
  options.pipeline_workers = 2;
  options.doc_queue_depth = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE((*subscriber)->Subscribe("//b", DeliveryMode::kAtEnd).ok());

  // A biggish document so evaluation is slower than the wire.
  std::string xml = "<a>";
  for (int i = 0; i < 1500; ++i) xml += "<b>text</b>";
  xml += "</a>";

  auto publisher = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(publisher.ok());
  constexpr size_t kDocs = 10;
  std::vector<uint64_t> accepted;
  for (size_t d = 0; d < kDocs; ++d) {
    while (true) {
      ASSERT_TRUE((*publisher)->Feed(xml).ok());
      auto doc = (*publisher)->FinishDocument();
      if (doc.ok()) {
        accepted.push_back(*doc);
        break;
      }
      // The only acceptable failure is the backpressure signal; the
      // whole document is re-fed after a short drain.
      ASSERT_EQ(doc.status().code(), StatusCode::kResourceExhausted)
          << doc.status().ToString();
      usleep(2 * 1000);
    }
  }
  ASSERT_EQ(accepted.size(), kDocs);
  for (uint64_t doc : accepted) {
    ASSERT_TRUE((*subscriber)->WaitDocDone(doc).ok()) << "doc " << doc;
  }
  size_t done_frames = 0;
  for (const ClientEvent& event : (*subscriber)->TakeEvents()) {
    if (event.kind != ClientEvent::Kind::kDocDone) continue;
    ++done_frames;
    ASSERT_EQ(event.verdicts.size(), 1u);
    EXPECT_TRUE(event.verdicts[0].second);
  }
  EXPECT_EQ(done_frames, kDocs);
  AwaitStat(subscriber->get(), "documents_seen", kDocs);
  (*server)->Stop();
}

// A publisher dying mid-document while other publishers stream: its
// partial parse is discarded without ever reaching the pool, and
// concurrent traffic is undisturbed.
TEST(ServerPipelineTest, PublisherDeathMidDocumentLeavesServiceClean) {
  ServerOptions options;
  options.engine.engine = "frontier";
  options.pipeline_workers = PipelineWorkersFromEnv();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(subscriber.ok());
  auto sub = (*subscriber)->Subscribe("//b", DeliveryMode::kEarliest);
  ASSERT_TRUE(sub.ok());

  auto steady = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(steady.ok());

  {
    auto doomed = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE((*doomed)->Feed("<a><b>half-open").ok());
    // The STATS round trip guarantees the chunk was parsed into the
    // connection's pending document before the socket drops.
    ASSERT_TRUE((*doomed)->Stats().ok());

    // The steady publisher completes a document while the doomed one
    // holds its own half-open — per-connection in-flight.
    ASSERT_TRUE((*steady)->Feed("<a><b/></a>").ok());
    auto during = (*steady)->FinishDocument();
    ASSERT_TRUE(during.ok());
    ASSERT_TRUE((*subscriber)->WaitDocDone(*during).ok());
  }  // doomed drops mid-document

  AwaitStat(subscriber->get(), "connections", 2);
  ASSERT_TRUE((*steady)->Feed("<a><b/></a>").ok());
  auto after = (*steady)->FinishDocument();
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*subscriber)->WaitDocDone(*after).ok());

  // The doomed partial was never submitted: exactly the two steady
  // documents exist, each delivering its match.
  EXPECT_EQ(*after, 1u);
  size_t matches = 0;
  for (const ClientEvent& event : (*subscriber)->TakeEvents()) {
    if (event.kind != ClientEvent::Kind::kMatch) continue;
    ++matches;
    EXPECT_EQ(event.sub_id, *sub);
  }
  EXPECT_EQ(matches, 2u);
  AwaitStat(subscriber->get(), "documents_seen", 2);
  (*server)->Stop();
}

// Destroying a pipelined server while its workers still evaluate
// queued documents: the pool joins its workers before the sink they
// report to goes away. A plain build passes either way; only
// ThreadSanitizer sees a sink destroyed first.
TEST(ServerPipelineTest, DestroyWhileWorkersEvaluate) {
  std::string xml = "<a>";
  for (int i = 0; i < 1000; ++i) xml += "<b><c>x</c></b>";
  xml += "</a>";
  for (int round = 0; round < 2; ++round) {
    ServerOptions options;
    options.engine.engine = "nfa";
    options.pipeline_workers = 2;
    auto started = Server::Start(options);
    ASSERT_TRUE(started.ok());
    std::unique_ptr<Server> server = std::move(started).value();
    auto client = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    for (int q = 0; q < 32; ++q) {
      ASSERT_TRUE((*client)
                      ->Subscribe(q % 2 == 0 ? "//c" : "//b/c",
                                  DeliveryMode::kEarliest)
                      .ok());
    }
    for (int d = 0; d < 6; ++d) {
      ASSERT_TRUE((*client)->Feed(xml).ok());
      ASSERT_TRUE((*client)->FinishDocument().ok()) << "doc " << d;
    }
    server.reset();  // no drain: the workers may still be evaluating
  }
}

}  // namespace
}  // namespace xpstream
