// xpstreamd quickstart: the dissemination service over TCP, driven by
// the blocking Client. With no arguments the example starts an
// in-process Server on an ephemeral loopback port (self-contained, no
// daemon needed); given `host port` it connects to a running xpstreamd
// instead — the CI smoke step uses that mode against a real daemon,
// serial and pipelined:
//
//   $ xpstreamd --port 7845 --engine frontier [--pipeline-workers 2] &
//   $ example_server_quickstart 127.0.0.1 7845
//
// Public headers only, exactly as an external consumer would use them.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "xpstream/server.h"
#include "xpstream/xpstream.h"

namespace {

const std::vector<std::string> kSubscriptions = {
    "/book/title",
    "//price",
    "/book/author/last",
    "//editor",
};

const std::vector<std::string> kDocuments = {
    "<book><title>data streams</title>"
    "<author><last>bar-yossef</last></author><price>25</price></book>",
    "<journal><title>pods</title><editor>j</editor></journal>",
    "<feed><msg><body>no books here</body></msg></feed>",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace xpstream;

  if (argc != 1 && argc != 3) {
    std::fprintf(stderr, "usage: %s [host port]\n", argv[0]);
    return 2;
  }

  // Self-contained mode: bring up the service in-process.
  std::unique_ptr<Server> local;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (argc == 3) {
    host = argv[1];
    port = static_cast<uint16_t>(std::atoi(argv[2]));
  } else {
    auto server = Server::Start({});
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      return 1;
    }
    local = std::move(server).value();
    port = local->port();
    std::printf("in-process server on 127.0.0.1:%u\n", port);
  }

  auto client = Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }

  // Standing subscriptions; kEarliest delivers MATCH frames at the
  // engine's commitment point, mid-document.
  std::vector<uint32_t> subs;
  for (const std::string& query : kSubscriptions) {
    auto id = (*client)->Subscribe(query, DeliveryMode::kEarliest);
    if (!id.ok()) {
      std::fprintf(stderr, "subscribe %s: %s\n", query.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    subs.push_back(*id);
    std::printf("subscribed #%u  %s\n", *id, query.c_str());
  }

  // Publish the stream; any client on the service may publish.
  std::vector<uint64_t> published;
  for (const std::string& xml : kDocuments) {
    if (!(*client)->Feed(xml).ok()) {
      std::fprintf(stderr, "feed failed\n");
      return 1;
    }
    auto doc = (*client)->FinishDocument();
    if (!doc.ok()) {
      std::fprintf(stderr, "document rejected: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    published.push_back(*doc);
  }

  // A pipelined server (--pipeline-workers N >= 2) pushes a document's
  // MATCH/DOC_DONE after its DOC_OK, so wait for every DOC_DONE first.
  for (uint64_t doc : published) {
    Status done = (*client)->WaitDocDone(doc);
    if (!done.ok()) {
      std::fprintf(stderr, "no DOC_DONE for doc %llu: %s\n",
                   static_cast<unsigned long long>(doc),
                   done.ToString().c_str());
      return 1;
    }
  }

  // Drain the pushes: MATCH at commitment points, DOC_DONE verdicts
  // per document.
  size_t matches = 0;
  for (const ClientEvent& event : (*client)->TakeEvents()) {
    if (event.kind == ClientEvent::Kind::kMatch) {
      std::printf("MATCH    doc %llu  subscription #%u  at event %llu\n",
                  static_cast<unsigned long long>(event.doc), event.sub_id,
                  static_cast<unsigned long long>(event.ordinal));
      ++matches;
    } else {
      std::printf("DOC_DONE doc %llu ",
                  static_cast<unsigned long long>(event.doc));
      for (const auto& [sub_id, hit] : event.verdicts) {
        std::printf(" #%u:%s", sub_id, hit ? "hit" : "miss");
      }
      std::printf("\n");
    }
  }

  auto stats = (*client)->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("\nserver stats:\n%s", stats->c_str());

  // The run is deterministic; make the example its own smoke test.
  if (matches == 0) {
    std::fprintf(stderr, "expected at least one MATCH push\n");
    return 1;
  }
  for (uint32_t sub : subs) {
    if (!(*client)->Unsubscribe(sub).ok()) {
      std::fprintf(stderr, "unsubscribe #%u failed\n", sub);
      return 1;
    }
  }
  std::printf("ok\n");
  return 0;
}
