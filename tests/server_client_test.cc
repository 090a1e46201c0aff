// Loopback integration: a Server + blocking Client against the direct
// Engine facade. The acceptance contract: verdicts and sink callback
// sequences observed over TCP are bit-identical to a direct engine fed
// the same bytes — for every registered engine — and connection
// lifecycle edges (mid-document disconnects,
// subscribe/unsubscribe churn, shutdown with live connections) neither
// crash the service nor perturb later documents.
//
// Deliveries to one connection ride one TCP stream in outbox FIFO
// order, and the server queues a document's MATCH / DOC_DONE frames
// before the publisher's DOC_OK ack; when publisher == subscriber the
// full push sequence is therefore available deterministically after
// FinishDocument() + TakeEvents().

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"
#include "xpstream/server.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

// Records the *interleaved* callback sequence (matches and document
// completions in arrival order), mirroring ClientEvent structure.
struct SequenceSink : ResultSink {
  struct Entry {
    bool is_match;
    size_t slot = 0;
    size_t doc = 0;
    size_t ordinal = 0;
    std::vector<bool> verdicts;
  };
  std::vector<Entry> entries;

  void OnMatch(size_t slot, size_t doc, size_t ordinal) override {
    entries.push_back({true, slot, doc, ordinal, {}});
  }
  void OnDocumentDone(size_t doc,
                      const std::vector<bool>& verdicts) override {
    entries.push_back({false, 0, doc, 0, verdicts});
  }
};

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

// Feeds one document in chunks of `chunk` bytes (0 = one shot).
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

// The tentpole contract: Client-over-TCP sees exactly what a direct
// ResultSink sees — same subscriptions (mixed delivery modes), same
// bytes, all five engines, varying chunk sizes, and a server with or
// without short_circuit (as xpstreamd runs) against a direct engine that
// scans every event.
TEST(ServerClientTest, ParityWithDirectEngineAllEngines) {
  const std::vector<std::string> queries = GeneratedQueries(13, 20260807);
  const std::vector<std::string> corpus = XmlCorpus(6, 19);
  const size_t chunk_sizes[] = {0, 1, 17};

  for (const std::string& name : Engine::AvailableEngines()) {
    for (bool short_circuit : {false, true}) {
      const std::string label = name + (short_circuit ? " short_circuit" : "");
      ServerOptions options;
      options.engine.engine = name;
      options.engine.short_circuit = short_circuit;
      auto server = Server::Start(options);
      ASSERT_TRUE(server.ok()) << label;
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok()) << label;

      EngineOptions direct_options = options.engine;
      direct_options.short_circuit = false;
      auto direct = Engine::Create(direct_options);
      ASSERT_TRUE(direct.ok()) << label;
      SequenceSink sink;
      (*direct)->SetSink(&sink);

      std::vector<uint32_t> wire_ids;  // index = direct engine slot
      for (size_t q = 0; q < queries.size(); ++q) {
        const DeliveryMode mode = q % 3 == 0 ? DeliveryMode::kAtEnd
                                             : DeliveryMode::kEarliest;
        auto id = (*client)->Subscribe(queries[q], mode);
        ASSERT_TRUE(id.ok()) << label << " " << queries[q];
        wire_ids.push_back(*id);
        ASSERT_TRUE(
            (*direct)
                ->Subscribe("q" + std::to_string(q), queries[q], mode)
                .ok())
            << label;
      }

      for (size_t d = 0; d < corpus.size(); ++d) {
        FeedChunked(client->get(), corpus[d], chunk_sizes[d % 3]);
        auto doc_index = (*client)->FinishDocument();
        ASSERT_TRUE(doc_index.ok()) << label << " doc " << d;
        EXPECT_EQ(*doc_index, d);
        ASSERT_TRUE((*direct)->FilterXml(corpus[d]).ok()) << label;
      }

      const std::vector<ClientEvent> events = (*client)->TakeEvents();
      ASSERT_EQ(events.size(), sink.entries.size()) << label;
      for (size_t i = 0; i < events.size(); ++i) {
        const ClientEvent& got = events[i];
        const SequenceSink::Entry& want = sink.entries[i];
        ASSERT_EQ(got.kind == ClientEvent::Kind::kMatch, want.is_match)
            << label << " event " << i;
        EXPECT_EQ(got.doc, want.doc) << label << " event " << i;
        if (want.is_match) {
          EXPECT_EQ(got.sub_id, wire_ids[want.slot])
              << label << " event " << i;
          EXPECT_EQ(got.ordinal, want.ordinal) << label << " event " << i;
        } else {
          ASSERT_EQ(got.verdicts.size(), want.verdicts.size()) << label;
          for (size_t v = 0; v < want.verdicts.size(); ++v) {
            EXPECT_EQ(got.verdicts[v].first, wire_ids[v]) << label;
            EXPECT_EQ(got.verdicts[v].second, want.verdicts[v]) << label;
          }
        }
      }
      (*server)->Stop();
    }
  }
}

// Subscribe/unsubscribe churn between documents, on both executors:
// every MATCH and DOC_DONE entry names the wire id that held its
// subscription position when the document ran, however many removals
// shifted the positions before it.
TEST(ServerClientTest, SubscribeUnsubscribeChurnParity) {
  const std::vector<std::string> queries = GeneratedQueries(9, 424242);
  const std::vector<std::string> corpus = XmlCorpus(4, 77);

  for (size_t workers : {1, 2}) {
    SCOPED_TRACE("pipeline_workers " + std::to_string(workers));
    ServerOptions options;
    options.engine.engine = "nfa";
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());

    auto direct = Engine::Create(options.engine);
    ASSERT_TRUE(direct.ok());
    SequenceSink sink;
    (*direct)->SetSink(&sink);

    // Live wire ids in subscription order, and their copy at each
    // document: the direct engine's slots index it.
    std::vector<uint32_t> live;
    std::vector<std::vector<uint32_t>> live_at_doc;
    auto subscribe = [&](const std::string& query) {
      auto id = (*client)->Subscribe(query, DeliveryMode::kEarliest);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE((*direct)
                      ->Subscribe(std::to_string(*id), query,
                                  DeliveryMode::kEarliest)
                      .ok());
      live.push_back(*id);
    };
    auto unsubscribe_at = [&](size_t index) {
      const uint32_t id = live[index];
      ASSERT_TRUE((*client)->Unsubscribe(id).ok());
      ASSERT_TRUE((*direct)->Unsubscribe(std::to_string(id)).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
    };
    auto feed_both = [&](const std::string& xml) {
      ASSERT_TRUE((*client)->Feed(xml).ok());
      auto doc = (*client)->FinishDocument();
      ASSERT_TRUE(doc.ok());
      // A pooled server delivers after DOC_OK and drops the entries of
      // subscriptions removed before delivery: wait before mutating.
      ASSERT_TRUE((*client)->WaitDocDone(*doc).ok());
      ASSERT_TRUE((*direct)->FilterXml(xml).ok());
      live_at_doc.push_back(live);
    };

    for (size_t q = 0; q < 6; ++q) subscribe(queries[q]);
    feed_both(corpus[0]);
    unsubscribe_at(1);
    unsubscribe_at(3);
    feed_both(corpus[1]);
    subscribe(queries[6]);
    subscribe(queries[7]);
    unsubscribe_at(0);
    feed_both(corpus[2]);
    ASSERT_TRUE((*client)->Compact().ok());
    ASSERT_TRUE((*direct)->CompactSubscriptions().ok());
    subscribe(queries[8]);
    feed_both(corpus[3]);

    // Unknown and already-removed ids are rejected without side effects.
    EXPECT_FALSE((*client)->Unsubscribe(9999).ok());

    const std::vector<ClientEvent> events = (*client)->TakeEvents();
    ASSERT_EQ(events.size(), sink.entries.size());
    size_t checked_docdones = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const ClientEvent& got = events[i];
      const SequenceSink::Entry& want = sink.entries[i];
      ASSERT_EQ(got.kind == ClientEvent::Kind::kMatch, want.is_match)
          << "event " << i;
      ASSERT_EQ(got.doc, want.doc) << "event " << i;
      ASSERT_LT(want.doc, live_at_doc.size()) << "event " << i;
      const std::vector<uint32_t>& ids = live_at_doc[want.doc];
      if (want.is_match) {
        ASSERT_LT(want.slot, ids.size()) << "event " << i;
        EXPECT_EQ(got.sub_id, ids[want.slot]) << "event " << i;
        EXPECT_EQ(got.ordinal, want.ordinal) << "event " << i;
        continue;
      }
      ASSERT_EQ(got.verdicts.size(), want.verdicts.size()) << "event " << i;
      ASSERT_EQ(got.verdicts.size(), ids.size()) << "event " << i;
      for (size_t v = 0; v < want.verdicts.size(); ++v) {
        EXPECT_EQ(got.verdicts[v].first, ids[v]) << "event " << i;
        EXPECT_EQ(got.verdicts[v].second, want.verdicts[v]) << "event " << i;
      }
      ++checked_docdones;
    }
    EXPECT_EQ(checked_docdones, 4u);
  }
}

// Polls STATS until `key` reaches `want` (the loop thread observes a
// disconnect asynchronously); fails the test on timeout.
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

// A publisher dying mid-document must not wedge the service: the
// partial document is aborted and the next publisher starts clean. A
// kEarliest MATCH the aborted document committed has already left.
TEST(ServerClientTest, PublisherDisconnectMidDocumentAbortsCleanly) {
  ServerOptions options;
  options.engine.engine = "frontier";
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto survivor = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(survivor.ok());
  auto sub = (*survivor)->Subscribe("//b", DeliveryMode::kEarliest);
  ASSERT_TRUE(sub.ok());

  {
    auto publisher = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(publisher.ok());
    ASSERT_TRUE((*publisher)->Feed("<a><b>half-open").ok());
    // A STATS round trip guarantees the server has processed the chunk
    // (per-connection FIFO) before anything else happens.
    ASSERT_TRUE((*publisher)->Stats().ok());
    // While another connection's document is in flight, a second
    // publisher is refused. DOC_CHUNK itself is unacked — the latched
    // error surfaces at the DOC_END the client waits on.
    ASSERT_TRUE((*survivor)->Feed("<x/>").ok());
    EXPECT_FALSE((*survivor)->FinishDocument().ok());
  }  // ...until the publisher drops mid-document.

  AwaitStat(survivor->get(), "connections", 1);
  ASSERT_TRUE((*survivor)->Feed("<a><b/></a>").ok());
  auto doc = (*survivor)->FinishDocument();
  ASSERT_TRUE(doc.ok());
  // The aborted partial document took index 0 when it opened, so the
  // survivor's document is index 1.
  EXPECT_EQ(*doc, 1u);
  // The frontier engine commits //b at <b> (ordinal 2), so the aborted
  // document already pushed its MATCH under index 0; no DOC_DONE
  // followed it, and the completed document's pushes carry index 1.
  const std::vector<ClientEvent> events = (*survivor)->TakeEvents();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(events[i].kind, ClientEvent::Kind::kMatch) << i;
    EXPECT_EQ(events[i].sub_id, *sub) << i;
    EXPECT_EQ(events[i].doc, i) << i;
    EXPECT_EQ(events[i].ordinal, 2u) << i;
  }
  EXPECT_EQ(events[2].kind, ClientEvent::Kind::kDocDone);
  EXPECT_EQ(events[2].doc, 1u);
}

// A subscriber dying while another connection's document is mid-flight:
// its subscriptions detach immediately (no delivery to a dead socket)
// and leave the engine at the document boundary — the publisher's
// document completes undisturbed.
TEST(ServerClientTest, SubscriberDisconnectMidDocumentDefersUnsubscribe) {
  ServerOptions options;
  options.engine.engine = "nfa";
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto publisher = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(publisher.ok());
  auto own = (*publisher)->Subscribe("//keep", DeliveryMode::kAtEnd);
  ASSERT_TRUE(own.ok());

  {
    auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(subscriber.ok());
    ASSERT_TRUE(
        (*subscriber)->Subscribe("//b", DeliveryMode::kEarliest).ok());
    AwaitStat(publisher->get(), "subscriptions", 2);
    ASSERT_TRUE((*publisher)->Feed("<a><b/><keep>").ok());
    // Ensure the chunk was processed (document open) before the
    // subscriber's socket closes.
    ASSERT_TRUE((*publisher)->Stats().ok());
  }  // subscriber gone; document still open

  // The engine bars removal mid-document, so the subscription count
  // stays at 2 until the boundary; the disconnect is only detachment.
  AwaitStat(publisher->get(), "connections", 1);
  auto mid = (*publisher)->Stats();
  ASSERT_TRUE(mid.ok());
  EXPECT_NE(mid->find("subscriptions=2\n"), std::string::npos) << *mid;
  ASSERT_TRUE((*publisher)->Feed("</keep></a>").ok());
  auto doc = (*publisher)->FinishDocument();
  ASSERT_TRUE(doc.ok());
  AwaitStat(publisher->get(), "subscriptions", 1);

  // Only the publisher's own subscription is delivered.
  const std::vector<ClientEvent> events = (*publisher)->TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ClientEvent::Kind::kMatch);
  EXPECT_EQ(events[0].sub_id, *own);
  ASSERT_EQ(events[1].verdicts.size(), 1u);
  EXPECT_EQ(events[1].verdicts[0].first, *own);
  EXPECT_TRUE(events[1].verdicts[0].second);

  // The detached subscription is fully gone: its id is not reused, and
  // the next document matches only live subscriptions.
  ASSERT_TRUE((*publisher)->Feed("<a><b/></a>").ok());
  ASSERT_TRUE((*publisher)->FinishDocument().ok());
  const std::vector<ClientEvent> tail = (*publisher)->TakeEvents();
  ASSERT_EQ(tail.size(), 1u);  // DOC_DONE only; //b no longer subscribed
  EXPECT_EQ(tail[0].kind, ClientEvent::Kind::kDocDone);
}

// Reads one STATS counter; fails the test when it is missing.
uint64_t StatValue(Client* client, const std::string& key) {
  auto stats = client->Stats();
  EXPECT_TRUE(stats.ok());
  if (!stats.ok()) return 0;
  const std::string needle = "\n" + key + "=";
  const size_t at = ("\n" + *stats).find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from\n" << *stats;
  if (at == std::string::npos) return 0;
  return std::stoull(stats->substr(at + needle.size() - 1));
}

// The server routes DOC_DONE through a table of owning connections that
// it rebuilds only when an owner or the subscription order changes, so a
// closed connection must invalidate it. One document builds the table
// with a subscriber in it; the subscriber then closes while the next
// document is in flight. That document's DOC_DONE lists only the
// publisher's id, and nothing is pushed toward the closed connection.
// The subscriber holds subscription position 0, so a stale table would
// route the next document's first entry to a destroyed session.
TEST(ServerClientTest, DocDoneRoutesNeverOutliveAnOwner) {
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE("pipeline_workers " + std::to_string(workers));
    ServerOptions options;
    options.engine.engine = "nfa";
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    auto publisher = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(publisher.ok());
    auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(subscriber.ok());
    auto theirs = (*subscriber)->Subscribe("//b", DeliveryMode::kEarliest);
    ASSERT_TRUE(theirs.ok());
    auto own = (*publisher)->Subscribe("//keep", DeliveryMode::kAtEnd);
    ASSERT_TRUE(own.ok());

    // Document 0 builds the table while both owners are connected.
    ASSERT_TRUE((*publisher)->Feed("<a><b/><keep/></a>").ok());
    auto first = (*publisher)->FinishDocument();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*publisher)->WaitDocDone(*first).ok());
    ASSERT_TRUE((*subscriber)->WaitDocDone(*first).ok());
    const std::vector<ClientEvent> seen = (*subscriber)->TakeEvents();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].sub_id, *theirs);
    ASSERT_EQ(seen[1].verdicts.size(), 1u);
    EXPECT_EQ(seen[1].verdicts[0].first, *theirs);
    (*publisher)->TakeEvents();

    // Document 1 is in flight when the subscriber closes.
    ASSERT_TRUE((*publisher)->Feed("<a><b/><keep>").ok());
    ASSERT_TRUE((*publisher)->Stats().ok());  // the chunk was processed
    subscriber->reset();
    AwaitStat(publisher->get(), "connections", 1);
    const uint64_t frames_before = StatValue(publisher->get(), "push_frames");
    ASSERT_TRUE((*publisher)->Feed("</keep></a>").ok());
    auto second = (*publisher)->FinishDocument();
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*publisher)->WaitDocDone(*second).ok());

    const std::vector<ClientEvent> events = (*publisher)->TakeEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, ClientEvent::Kind::kMatch);
    EXPECT_EQ(events[0].sub_id, *own);
    EXPECT_EQ(events[1].doc, *second);
    ASSERT_EQ(events[1].verdicts.size(), 1u);
    EXPECT_EQ(events[1].verdicts[0].first, *own);
    EXPECT_TRUE(events[1].verdicts[0].second);
    // Every push frame since the close went to the publisher.
    EXPECT_EQ(StatValue(publisher->get(), "push_frames") - frames_before,
              events.size());
    (*server)->Stop();
  }
}

// The serial engine's population is fixed while a document streams:
// another connection's SUBSCRIBE, UNSUBSCRIBE and COMPACT are refused
// with status 1 (invalid argument) and change nothing, so the
// subscription kept gets that document's pushes; after DOC_END all three
// succeed. A pipelined server takes all three mid-document.
TEST(ServerClientTest, SerialServerRefusesMutationsMidDocument) {
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE("pipeline_workers " + std::to_string(workers));
    ServerOptions options;
    options.engine.engine = "nfa";
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    auto publisher = Client::Connect("127.0.0.1", (*server)->port());
    auto subscriber = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(publisher.ok());
    ASSERT_TRUE(subscriber.ok());
    auto kept = (*subscriber)->Subscribe("//b", DeliveryMode::kEarliest);
    ASSERT_TRUE(kept.ok());

    ASSERT_TRUE((*publisher)->Feed("<a><b/>").ok());
    // The STATS round trip guarantees the chunk opened the document.
    ASSERT_TRUE((*publisher)->Stats().ok());
    auto added = (*subscriber)->Subscribe("//c");
    const Status removed = (*subscriber)->Unsubscribe(*kept);
    const Status compacted = (*subscriber)->Compact();
    if (workers == 2) {
      EXPECT_TRUE(added.ok()) << added.status().ToString();
      EXPECT_TRUE(removed.ok()) << removed.ToString();
      EXPECT_TRUE(compacted.ok()) << compacted.ToString();
      ASSERT_TRUE((*publisher)->Feed("</a>").ok());
      ASSERT_TRUE((*publisher)->FinishDocument().ok());
      continue;
    }
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(removed.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(compacted.code(), StatusCode::kInvalidArgument);
    auto stats = (*subscriber)->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats->find("subscriptions=1\n"), std::string::npos) << *stats;

    ASSERT_TRUE((*publisher)->Feed("</a>").ok());
    auto doc = (*publisher)->FinishDocument();
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE((*subscriber)->WaitDocDone(*doc).ok());
    const std::vector<ClientEvent> events = (*subscriber)->TakeEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, ClientEvent::Kind::kMatch);
    EXPECT_EQ(events[0].sub_id, *kept);
    ASSERT_EQ(events[1].verdicts.size(), 1u);
    EXPECT_EQ(events[1].verdicts[0].first, *kept);
    EXPECT_TRUE(events[1].verdicts[0].second);

    EXPECT_TRUE((*subscriber)->Subscribe("//c").ok());
    EXPECT_TRUE((*subscriber)->Unsubscribe(*kept).ok());
    EXPECT_TRUE((*subscriber)->Compact().ok());
  }
}

// Stop() with live, mid-conversation connections: the loop drains and
// joins, clients see EOF on their next read, nothing crashes, and
// Stop() is idempotent. (This is the TSan-sensitive path: Stop races
// the loop thread's poll cycle.)
TEST(ServerClientTest, CleanShutdownWithLiveConnections) {
  ServerOptions options;
  options.engine.engine = "lazy_dfa";
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 3; ++i) {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Subscribe("//a").ok());
    clients.push_back(std::move(client).value());
  }
  // One of them even has a document half-streamed.
  ASSERT_TRUE(clients[0]->Feed("<open><a>").ok());

  (*server)->Stop();
  (*server)->Stop();  // idempotent

  for (auto& client : clients) {
    auto stats = client->Stats();
    EXPECT_FALSE(stats.ok());
  }

  // The process can start a fresh server immediately afterwards.
  auto again = Server::Start(options);
  ASSERT_TRUE(again.ok());
  auto client = Client::Connect("127.0.0.1", (*again)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Subscribe("//a").ok());
}

// Destroying a Server (not just Stop()) with clients attached must
// also be clean — the destructor path is what most callers rely on.
TEST(ServerClientTest, DestructorShutsDown) {
  std::unique_ptr<Client> orphan;
  {
    ServerOptions options;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Subscribe("//x").ok());
    orphan = std::move(client).value();
  }
  EXPECT_FALSE(orphan->Stats().ok());
}

// STATS surfaces the engine identity and counters a dashboard needs.
TEST(ServerClientTest, StatsReportEngineAndCounters) {
  ServerOptions options;
  options.engine.engine = "nfa_index";
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("//a").ok());
  ASSERT_TRUE((*client)->Subscribe("//a").ok());  // dedup shares a slot
  // 64 KiB of text: the parse gauge below can round to 0.00 MB/s only
  // if parsing it takes over 13 s, so the check fails only when the
  // gauge is truly zero.
  ASSERT_TRUE(
      (*client)->Feed("<a>" + std::string(64 * 1024, 'x') + "</a>").ok());
  ASSERT_TRUE((*client)->FinishDocument().ok());

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("engine=nfa_index\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("documents_seen=1\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("subscriptions=2\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("eval_slots=1\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("connections=1\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("dropped_frames=0\n"), std::string::npos) << *stats;
  // The zero-copy parse gauges: arena high-water mark and cumulative
  // parse throughput (nonzero once a document has been fed).
  EXPECT_NE(stats->find("arena_bytes="), std::string::npos) << *stats;
  const size_t mbps = stats->find("parse_mb_per_s=");
  ASSERT_NE(mbps, std::string::npos) << *stats;
  EXPECT_EQ(stats->find("parse_mb_per_s=0.00\n"), std::string::npos)
      << *stats;
}

// Backpressure is shedding, not stalling: a subscriber that never
// reads cannot block the document stream. With a tiny outbox and a
// shrunken kernel send buffer, pushes to it are dropped and counted;
// the publisher's throughput is unaffected and the slow subscriber's
// connection survives to read the drop counter afterwards.
TEST(ServerClientTest, SlowSubscriberShedsFramesInsteadOfStalling) {
  ServerOptions options;
  options.engine.engine = "nfa";
  options.outbox_frames = 4;
  options.so_sndbuf = 4096;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  auto slow = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(slow.ok());
  // Many duplicate subscriptions multiply the per-document push volume
  // (each gets its own MATCH frame and DOC_DONE entry).
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE((*slow)->Subscribe("//x", DeliveryMode::kEarliest).ok());
  }

  auto publisher = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(publisher.ok());
  for (int d = 0; d < 300; ++d) {
    ASSERT_TRUE((*publisher)->Feed("<x/>").ok());
    ASSERT_TRUE((*publisher)->FinishDocument().ok()) << "doc " << d;
  }

  // The slow client now drains everything that did make it through and
  // asks for its own drop counter.
  auto stats = (*slow)->Stats();
  ASSERT_TRUE(stats.ok());
  const size_t at = stats->find("dropped_frames=");
  ASSERT_NE(at, std::string::npos) << *stats;
  const uint64_t dropped =
      std::stoull(stats->substr(at + std::string("dropped_frames=").size()));
  EXPECT_GT(dropped, 0u) << *stats;
  // Shedding did not corrupt the stream: the frames that were delivered
  // decode cleanly.
  const std::vector<ClientEvent> events = (*slow)->TakeEvents();
  for (const ClientEvent& event : events) {
    if (event.kind == ClientEvent::Kind::kMatch) {
      EXPECT_GE(event.sub_id, 1u);
      EXPECT_LE(event.sub_id, 128u);
    }
  }
  // The publisher side never saw backpressure as an error.
  auto publisher_stats = (*publisher)->Stats();
  ASSERT_TRUE(publisher_stats.ok());
  EXPECT_NE(publisher_stats->find("documents_seen=300\n"), std::string::npos);
}

}  // namespace
}  // namespace xpstream
