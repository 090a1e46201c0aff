// Session over a socketpair: the contiguous output buffer keeps the
// frame-count semantics of the backpressure policy (pushes shed at the
// cap and counted exactly, control acks in the reserved headroom), and
// partial sends deliver every queued byte in FIFO order. Through a live
// Server: a peer that resets while its pushes are flushed write-through
// is reaped (STATS connections drops, no fd leaks).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "server/event_loop.h"
#include "server/session.h"
#include "server/wire.h"
#include "xpstream/server.h"

namespace xpstream {
namespace {

using wire::FrameType;

/// Answers every request trivially. STATS first pushes
/// `pushes_on_stats` MATCH frames to the requester: a request admitted
/// below the cap whose own handling fills the buffer before its ack is
/// queued.
class FakeHost : public SessionHost {
 public:
  Result<uint32_t> OnSubscribe(Session*, uint8_t, std::string_view) override {
    return uint32_t{1};
  }
  Status OnUnsubscribe(Session*, uint32_t) override { return Status::OK(); }
  Status OnDocChunk(Session*, std::string_view) override {
    return Status::OK();
  }
  Result<uint64_t> OnDocEnd(Session*) override { return uint64_t{0}; }
  Status OnCompact(Session*) override { return Status::OK(); }
  std::string OnStats(Session* session) override {
    for (uint64_t i = 0; i < pushes_on_stats; ++i) {
      session->PushMatch(7, 0, i);
    }
    return "stats";
  }

  uint64_t pushes_on_stats = 0;
};

/// A Session on one end of a Unix socketpair whose send buffer is
/// shrunk, so large flushes leave in several partial writes; the test
/// holds the other end as the peer.
class SessionOverSocketpair {
 public:
  SessionOverSocketpair(size_t outbox_frames, SessionHost* host) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
    EXPECT_TRUE(SetNonBlocking(fds[0]).ok());
    EXPECT_TRUE(SetNonBlocking(fds[1]).ok());
    peer_ = fds[1];
    SessionLimits limits;
    limits.outbox_frames = outbox_frames;
    session_ = std::make_unique<Session>(fds[0], 1, limits, host, &counters_);
  }
  ~SessionOverSocketpair() { ::close(peer_); }
  SessionOverSocketpair(const SessionOverSocketpair&) = delete;
  SessionOverSocketpair& operator=(const SessionOverSocketpair&) = delete;

  Session& session() { return *session_; }
  const PushCounters& counters() const { return counters_; }

  /// Everything the peer can read without blocking.
  std::string ReadAvailable() {
    std::string bytes;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(peer_, buffer, sizeof buffer, 0)) > 0) {
      bytes.append(buffer, static_cast<size_t>(n));
    }
    return bytes;
  }

  void SendFromPeer(std::string_view bytes) {
    ASSERT_EQ(::send(peer_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

 private:
  int peer_ = -1;
  PushCounters counters_;
  std::unique_ptr<Session> session_;
};

TEST(ServerSessionTest, PushesPastTheCapAreShedAndCountedExactly) {
  FakeHost host;
  SessionOverSocketpair pair(/*outbox_frames=*/4, &host);
  Session& session = pair.session();

  // The first push into an empty buffer owes the caller a flush; the
  // next ones ride along with it.
  EXPECT_TRUE(session.PushMatch(1, 0, 0));
  std::string expected = wire::EncodeMatch(1, 0, 0);
  for (uint64_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(session.PushMatch(1, 0, i));
    expected += wire::EncodeMatch(1, 0, i);
  }
  EXPECT_EQ(session.queued_frames(), 4u);
  EXPECT_EQ(session.Interest() & POLLIN, 0) << "request gate open at the cap";

  // Past the cap every push is shed, a DOC_DONE as much as a MATCH.
  for (uint64_t i = 0; i < 6; ++i) EXPECT_FALSE(session.PushMatch(2, 0, i));
  EXPECT_FALSE(session.PushDocDone(0, 0, ""));
  EXPECT_EQ(session.dropped_frames(), 7u);
  EXPECT_EQ(session.queued_frames(), 4u);

  // One send carries the four queued frames.
  session.Flush();
  EXPECT_EQ(session.queued_frames(), 0u);
  EXPECT_EQ(pair.ReadAvailable(), expected);
  EXPECT_EQ(pair.counters().frames, 4u);
  EXPECT_EQ(pair.counters().writes, 1u);
  EXPECT_NE(session.Interest() & POLLIN, 0);

  // Room again: the next push is queued, not shed.
  EXPECT_TRUE(session.PushMatch(3, 1, 0));
  EXPECT_EQ(session.dropped_frames(), 7u);
}

TEST(ServerSessionTest, ControlAcksUseTheHeadroomAboveTheCap) {
  FakeHost host;
  host.pushes_on_stats = 10;
  SessionOverSocketpair pair(/*outbox_frames=*/4, &host);
  Session& session = pair.session();
  std::string expected;
  for (uint64_t i = 0; i < 3; ++i) {
    session.PushMatch(1, 0, i);
    expected += wire::EncodeMatch(1, 0, i);
  }

  // Three of four slots used: the gate admits the STATS request, whose
  // handler fills the last slot and sheds the rest of its pushes. The
  // ack still goes in, above the cap, and leaves after the pushes.
  pair.SendFromPeer(wire::EncodeFrame(FrameType::kStats, ""));
  session.HandleEvents(POLLIN);
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.dropped_frames(), 9u);
  expected += wire::EncodeMatch(7, 0, 0);
  expected += wire::EncodeFrame(FrameType::kStatsOk, "stats");
  EXPECT_EQ(pair.ReadAvailable(), expected);

  // The headroom itself is finite: over a full buffer eight acks fit;
  // a ninth means the gate was bypassed, and the session closes rather
  // than leave its client waiting.
  for (uint64_t i = 0; i < 4; ++i) session.PushMatch(1, 1, i);
  const std::string ack = wire::EncodeDocOk(1);
  for (int i = 0; i < 8; ++i) {
    session.EnqueueControl(ack);
    ASSERT_FALSE(session.done()) << "ack " << i;
  }
  session.EnqueueControl(ack);
  EXPECT_TRUE(session.done());
}

TEST(ServerSessionTest, PartialSendsDeliverEveryFrameByteExactInOrder) {
  FakeHost host;
  SessionOverSocketpair pair(/*outbox_frames=*/1024, &host);
  Session& session = pair.session();
  std::string expected;
  // Per document: 40 MATCH frames, a kilobyte DOC_DONE and an ack.
  auto queue_document = [&](uint64_t doc) {
    for (uint32_t i = 0; i < 40; ++i) {
      session.PushMatch(i, doc, i * 3);
      expected += wire::EncodeMatch(i, doc, i * 3);
    }
    std::string entries;
    for (uint32_t sub = 0; sub < 200; ++sub) {
      wire::AppendU32(&entries, sub);
      wire::AppendU8(&entries, sub % 3 == 0 ? 1 : 0);
    }
    session.PushDocDone(doc, 200, entries);
    std::string payload;
    wire::AppendU64(&payload, doc);
    wire::AppendU32(&payload, 200);
    payload += entries;
    expected += wire::EncodeFrame(FrameType::kDocDone, payload);
    const std::string ack = wire::EncodeDocOk(doc);
    session.EnqueueControl(ack);
    expected += ack;
  };

  for (uint64_t doc = 0; doc < 8; ++doc) queue_document(doc);
  session.Flush();
  EXPECT_NE(session.Interest() & POLLOUT, 0)
      << "the shrunken send buffer should take only part of the first flush";
  std::string received = pair.ReadAvailable();
  // More frames join a buffer whose head is partly sent.
  for (uint64_t doc = 8; doc < 16; ++doc) queue_document(doc);
  for (int round = 0; round < 100000 && received.size() < expected.size();
       ++round) {
    session.Flush();
    received += pair.ReadAvailable();
  }

  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.queued_frames(), 0u);
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "bytes differ or are out of order";
  EXPECT_EQ(pair.counters().frames, 16u * 41u);
  EXPECT_GT(pair.counters().writes, 1u);
}

// --- through a live Server ------------------------------------------------

size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Polls STATS until `connections` reads `want`; false on timeout.
bool AwaitConnections(Client* client, uint64_t want) {
  const std::string needle = "\nconnections=" + std::to_string(want) + "\n";
  for (int attempt = 0; attempt < 500; ++attempt) {
    auto stats = client->Stats();
    if (stats.ok() && stats->find(needle) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A raw subscriber connection holding one kEarliest subscription to
/// `query`; its fd once SUBSCRIBE_OK arrived, -1 otherwise.
int ConnectSubscriber(uint16_t port, std::string_view query) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  const std::string request = wire::EncodeSubscribe(1, query);
  wire::FrameDecoder decoder(1u << 20);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) ==
          0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char buffer[256];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
      decoder.Append(std::string_view(buffer, static_cast<size_t>(n)));
      auto frame = decoder.Next();
      if (!frame.ok()) break;
      if (!frame->has_value()) continue;
      if ((*frame)->type == FrameType::kSubscribeOk) return fd;
      break;
    }
  }
  ::close(fd);
  return -1;
}

TEST(ServerSessionTest, PeerResetDuringWriteThroughFlushIsReaped) {
  ServerOptions options;
  options.engine.engine = "nfa";
  options.max_frame_bytes = 8u << 20;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());
  auto publisher = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(publisher.ok());
  ASSERT_TRUE(AwaitConnections(publisher->get(), 1));
  const size_t fds_before = OpenFdCount();

  // One large chunk keeps the loop thread inside a single unit of work
  // (parse and match) while the subscriber resets, so the reset lands
  // after the loop's last poll and before the chunk's write-through
  // flush, whose send then fails on a session no poll would report.
  std::string chunk = "<a><b/>";
  while (chunk.size() < (2u << 20)) chunk += "<c/>";
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int subscriber = ConnectSubscriber((*server)->port(), "//b");
    ASSERT_GE(subscriber, 0);
    ASSERT_TRUE(AwaitConnections(publisher->get(), 2));
    ASSERT_TRUE((*publisher)->Feed(chunk).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const linger reset{1, 0};  // close() sends RST
    ::setsockopt(subscriber, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(subscriber);
    ASSERT_TRUE((*publisher)->Feed("</a>").ok());
    ASSERT_TRUE((*publisher)->FinishDocument().ok());
    EXPECT_TRUE(AwaitConnections(publisher->get(), 1));
  }
  EXPECT_EQ(OpenFdCount(), fds_before);
}

}  // namespace
}  // namespace xpstream
