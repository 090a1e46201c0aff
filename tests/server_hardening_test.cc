// Hostile-input hardening of xpstreamd: framing violations (oversize,
// zero-length, unknown-type, truncated and garbage frames) get a clean
// per-connection ERROR frame and a close — never a crash, never any
// effect on other connections — and the resource caps
// (max_document_bytes, max_element_depth) fail the offending document
// while the connection and the engine stay healthy.
//
// These tests speak the wire protocol by hand through raw sockets
// (bypassing the Client, which only emits well-formed frames) and
// decode responses with the same wire:: helpers the server uses.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.h"
#include "xml/parser.h"
#include "xpstream/server.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

using wire::FrameType;

/// A raw TCP connection with a receive timeout; reads one frame at a
/// time with the library decoder.
class RawConn {
 public:
  /// `rcvbuf > 0` shrinks SO_RCVBUF before connecting (it must be set
  /// pre-handshake to affect the advertised window).
  static RawConn Connect(uint16_t port, int rcvbuf = 0) {
    RawConn conn;
    conn.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(conn.fd_, 0);
    timeval timeout{5, 0};
    ::setsockopt(conn.fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    if (rcvbuf > 0) {
      ::setsockopt(conn.fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(conn.fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof address),
              0);
    return conn;
  }

  ~RawConn() { Close(); }
  RawConn(RawConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Next complete frame, or nullopt on EOF/timeout/undecodable bytes.
  std::optional<wire::Frame> ReadFrame() {
    while (true) {
      auto frame = decoder_.Next();
      if (!frame.ok()) return std::nullopt;
      if (frame->has_value()) return **frame;
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) return std::nullopt;
      decoder_.Append(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  /// True when the server closed its end (EOF within the timeout).
  bool ReadEof() {
    while (true) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout: still open
    }
  }

 private:
  RawConn() = default;
  int fd_ = -1;
  // Generous local limit: we must be able to *decode* whatever the
  // server sends even when testing the server's much smaller cap.
  wire::FrameDecoder decoder_{1u << 24};
};

/// Expects exactly: one ERROR frame carrying `code`, then EOF.
void ExpectErrorThenClose(RawConn* conn, StatusCode code) {
  auto frame = conn->ReadFrame();
  ASSERT_TRUE(frame.has_value()) << "no ERROR frame before close";
  ASSERT_EQ(frame->type, FrameType::kError);
  const Status status = wire::DecodeError(frame->payload);
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_TRUE(conn->ReadEof());
}

/// The "other connections unaffected" probe: a healthy client doing a
/// full subscribe/feed/verdict round trip. Written to hold against a
/// pipelined server too: the verdict arrives after the DOC_OK ack (so
/// wait for it explicitly), and a fresh subscription may also receive
/// DOC_DONE frames of older documents still queued when it registered
/// (dispatch-time population snapshot) — assert only on our document.
void ExpectServiceHealthy(uint16_t port) {
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto sub = (*client)->Subscribe("//b", DeliveryMode::kEarliest);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE((*client)->Feed("<a><b/></a>").ok());
  auto doc = (*client)->FinishDocument();
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*client)->WaitDocDone(*doc).ok());
  std::vector<ClientEvent> events;
  for (const ClientEvent& event : (*client)->TakeEvents()) {
    if (event.doc == *doc) events.push_back(event);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ClientEvent::Kind::kMatch);
  EXPECT_EQ(events[1].kind, ClientEvent::Kind::kDocDone);
  ASSERT_TRUE((*client)->Unsubscribe(*sub).ok());
}

ServerOptions SmallLimits() {
  ServerOptions options;
  options.engine.engine = "nfa";
  options.max_frame_bytes = 1024;
  options.max_document_bytes = 4096;
  return options;
}

TEST(ServerHardeningTest, OversizeFrameDeclarationClosesThatConnectionOnly) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());

  // An established victim connection with live state on the server.
  auto victim = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE((*victim)->Subscribe("//b").ok());

  RawConn hostile = RawConn::Connect((*server)->port());
  std::string header;
  wire::AppendU32(&header, 100'000);  // declares 100 KB > 1 KB cap
  hostile.Send(header);
  ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);

  // The victim's subscription and the service are untouched.
  ASSERT_TRUE((*victim)->Feed("<a><b/></a>").ok());
  ASSERT_TRUE((*victim)->FinishDocument().ok());
  // kAtEnd match delivered at the boundary + the DOC_DONE verdicts.
  EXPECT_EQ((*victim)->TakeEvents().size(), 2u);
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, ZeroLengthFrameIsAFramingError) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  RawConn hostile = RawConn::Connect((*server)->port());
  std::string header;
  wire::AppendU32(&header, 0);  // no room for even the type byte
  hostile.Send(header);
  ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, UnknownFrameTypeClosesConnection) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  RawConn hostile = RawConn::Connect((*server)->port());
  hostile.Send(wire::EncodeFrame(static_cast<FrameType>(0x7F), "junk"));
  ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, ClientMayNotSendServerFrameTypes) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  RawConn hostile = RawConn::Connect((*server)->port());
  hostile.Send(wire::EncodeMatch(1, 2, 3));  // a push, from the wrong side
  ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, MalformedPayloadsCloseConnection) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  {
    // SUBSCRIBE with no mode byte.
    RawConn hostile = RawConn::Connect((*server)->port());
    hostile.Send(wire::EncodeFrame(FrameType::kSubscribe, ""));
    ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  }
  {
    // SUBSCRIBE with an out-of-range delivery mode.
    RawConn hostile = RawConn::Connect((*server)->port());
    std::string payload;
    wire::AppendU8(&payload, 9);
    payload.append("//a");
    hostile.Send(wire::EncodeFrame(FrameType::kSubscribe, payload));
    ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  }
  {
    // UNSUBSCRIBE with a short id field.
    RawConn hostile = RawConn::Connect((*server)->port());
    hostile.Send(wire::EncodeFrame(FrameType::kUnsubscribe, "\x01"));
    ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  }
  {
    // DOC_END carrying unexpected payload bytes.
    RawConn hostile = RawConn::Connect((*server)->port());
    hostile.Send(wire::EncodeFrame(FrameType::kDocEnd, "x"));
    ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  }
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, GarbageBytesAreRejected) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  RawConn hostile = RawConn::Connect((*server)->port());
  // "GET " as a big-endian length is ~1.2 GB — instant framing error;
  // an accidental HTTP client cannot make the server buffer anything.
  hostile.Send("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  ExpectErrorThenClose(&hostile, StatusCode::kInvalidArgument);
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, TruncatedFrameThenDisconnectLeavesNoResidue) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  {
    RawConn hostile = RawConn::Connect((*server)->port());
    // A valid header promising 512 bytes, then silence and a close.
    std::string header;
    wire::AppendU32(&header, 512);
    wire::AppendU8(&header, 0x01);
    hostile.Send(header);
  }  // disconnect with the frame incomplete
  {
    // Half a SUBSCRIBE that never completes, then a hard close.
    RawConn hostile = RawConn::Connect((*server)->port());
    hostile.Send(std::string("\x00\x00", 2));
  }
  ExpectServiceHealthy((*server)->port());
}

TEST(ServerHardeningTest, DocumentByteCapAbortsDocumentNotConnection) {
  auto server = Server::Start(SmallLimits());  // max_document_bytes = 4096
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("//b").ok());

  // 8 KB of well-formed XML, streamed in frame-sized chunks so the
  // document cap — not the frame cap, not the parser — is what trips.
  std::string big = "<a>";
  while (big.size() < 8192) big += "<b>filler</b>";
  big += "</a>";
  for (size_t offset = 0; offset < big.size(); offset += 512) {
    ASSERT_TRUE(
        (*client)->Feed(std::string_view(big).substr(offset, 512)).ok());
  }
  auto oversized = (*client)->FinishDocument();
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.status().message().find("max_document_bytes"),
            std::string::npos)
      << oversized.status().ToString();

  // Same connection, next document: accepted, under the next index:
  // the aborted one took index 0 when it opened.
  ASSERT_TRUE((*client)->Feed("<a><b/></a>").ok());
  auto good = (*client)->FinishDocument();
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 1u);
}

TEST(ServerHardeningTest, ElementDepthCapMatchesDirectEngine) {
  // The serial executor's engine parser and the pipelined loop-thread
  // parser enforce the same cap.
  for (size_t workers : {size_t{1}, size_t{2}}) {
    ServerOptions options;
    options.engine.engine = "frontier";
    options.engine.max_element_depth = 4;
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << "workers=" << workers;
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Subscribe("//d").ok());

    auto direct = Engine::Create(options.engine);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE((*direct)->Subscribe("q", "//d").ok());

    const std::string at_cap = "<a><b><c><d/></c></b></a>";          // depth 4
    const std::string over_cap = "<a><b><c><d><e/></d></c></b></a>";  // depth 5

    ASSERT_TRUE((*client)->Feed(at_cap).ok());
    EXPECT_TRUE((*client)->FinishDocument().ok()) << "workers=" << workers;
    EXPECT_TRUE((*direct)->FilterXml(at_cap).ok());

    ASSERT_TRUE((*client)->Feed(over_cap).ok());
    auto over_tcp = (*client)->FinishDocument();
    auto over_direct = (*direct)->FilterXml(over_cap);
    ASSERT_FALSE(over_tcp.ok()) << "workers=" << workers;
    ASSERT_FALSE(over_direct.ok());
    EXPECT_EQ(over_tcp.status().code(), StatusCode::kNotWellFormed)
        << "workers=" << workers;
    EXPECT_EQ(over_direct.status().code(), StatusCode::kNotWellFormed);

    // The cap holds on the pre-parsed entry point too.
    auto over_events = ParseXmlToEvents(over_cap);
    ASSERT_TRUE(over_events.ok());
    auto over_batch = (*direct)->FilterEvents(over_events->events());
    ASSERT_FALSE(over_batch.ok());
    EXPECT_EQ(over_batch.status().code(), StatusCode::kNotWellFormed);

    // Both sides recover for the next well-formed document.
    ASSERT_TRUE((*client)->Feed(at_cap).ok());
    EXPECT_TRUE((*client)->FinishDocument().ok()) << "workers=" << workers;
    EXPECT_TRUE((*direct)->FilterXml(at_cap).ok());
    ExpectServiceHealthy((*server)->port());
  }
}

// An embedded server started the way server.h documents it (fields of
// ServerOptions::engine set, not the whole EngineOptions replaced)
// keeps ServiceEngineOptions()'s depth cap with either executor: a
// document at depth 1024 passes, one at 1025 fails, the service lives.
TEST(ServerHardeningTest, DocumentedStartKeepsServiceDepthCap) {
  ASSERT_EQ(ServiceEngineOptions().max_element_depth, 1024u);
  auto nested = [](size_t depth) {
    std::string xml;
    for (size_t i = 0; i < depth; ++i) xml += "<a>";
    for (size_t i = 0; i < depth; ++i) xml += "</a>";
    return xml;
  };
  for (size_t workers : {size_t{1}, size_t{2}}) {
    ServerOptions options;
    options.engine.engine = "frontier";
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << "workers=" << workers;
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Subscribe("//a").ok());

    ASSERT_TRUE((*client)->Feed(nested(1024)).ok());
    EXPECT_TRUE((*client)->FinishDocument().ok()) << "workers=" << workers;

    ASSERT_TRUE((*client)->Feed(nested(1025)).ok());
    auto too_deep = (*client)->FinishDocument();
    ASSERT_FALSE(too_deep.ok()) << "workers=" << workers;
    EXPECT_EQ(too_deep.status().code(), StatusCode::kNotWellFormed)
        << too_deep.status().ToString();
    ExpectServiceHealthy((*server)->port());
  }
}

TEST(ServerHardeningTest, MalformedXmlFailsDocumentNotConnection) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("//b").ok());

  // Mismatched close tag: the parse error is latched chunk-side and
  // surfaces at DOC_END; later chunks of the doomed document are
  // discarded without confusing the engine.
  ASSERT_TRUE((*client)->Feed("<a><b></a>").ok());
  ASSERT_TRUE((*client)->Feed("more bytes after the error").ok());
  auto bad = (*client)->FinishDocument();
  ASSERT_FALSE(bad.ok());

  // The failed document took index 0 when it opened.
  ASSERT_TRUE((*client)->Feed("<a><b/></a>").ok());
  auto good = (*client)->FinishDocument();
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 1u);
  ExpectServiceHealthy((*server)->port());
}

// A document spending more decoded entity/charref bytes than
// max_entity_expansion_bytes allows is failed cleanly — ERROR at
// DOC_END, connection and service intact — in the serial and the
// pipelined ingestion model alike.
TEST(ServerHardeningTest, EntityExpansionCapFailsDocumentNotConnection) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ServerOptions options;
    options.engine.engine = "frontier";
    options.engine.max_entity_expansion_bytes = 8;
    options.pipeline_workers = workers;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << "workers=" << workers;
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Subscribe("//a").ok());

    std::string hostile = "<a>";
    for (int i = 0; i < 64; ++i) hostile += "&#65;";
    hostile += "</a>";
    ASSERT_TRUE((*client)->Feed(hostile).ok());
    auto bad = (*client)->FinishDocument();
    ASSERT_FALSE(bad.ok()) << "workers=" << workers;

    // The connection survives. A serial server gave the hostile
    // document index 0 when it opened, so the next one is 1; a pooled
    // server numbers documents at submission, which the hostile one
    // never reached, so the next one is 0.
    ASSERT_TRUE((*client)->Feed("<a/>").ok());
    auto good = (*client)->FinishDocument();
    ASSERT_TRUE(good.ok()) << "workers=" << workers;
    EXPECT_EQ(*good, workers == 1 ? 1u : 0u);
    ExpectServiceHealthy((*server)->port());
  }
}

// The server runs embedded here (no daemon, so no SIG_IGN on SIGPIPE):
// pushing frames to a subscriber that vanished must surface as EPIPE
// inside the server, never as a process-killing SIGPIPE.
TEST(ServerHardeningTest, DisconnectWithQueuedPushesDoesNotRaiseSigpipe) {
  // Tiny kernel buffers on both ends, so MATCH frames pile up in the
  // session outbox instead of vanishing into TCP.
  ServerOptions options;
  options.engine.engine = "nfa";
  options.so_sndbuf = 4096;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  // A raw-socket subscriber with kEarliest delivery that never reads
  // its pushes.
  RawConn subscriber = RawConn::Connect((*server)->port(), /*rcvbuf=*/4096);
  std::string payload;
  wire::AppendU8(&payload, 1);  // kEarliest
  payload.append("//b");
  subscriber.Send(wire::EncodeFrame(FrameType::kSubscribe, payload));
  auto ack = subscriber.ReadFrame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, FrameType::kSubscribeOk);

  // Thousands of matches: the flush fills both kernel buffers, hits
  // EAGAIN and leaves the rest queued in the outbox.
  auto publisher = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(publisher.ok());
  std::string doc = "<a>";
  for (int i = 0; i < 2000; ++i) doc += "<b/>";
  doc += "</a>";
  ASSERT_TRUE((*publisher)->Feed(doc).ok());
  ASSERT_TRUE((*publisher)->FinishDocument().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Abrupt close with unread data in the receive buffer sends an RST
  // immediately. The next flush writes to the reset socket — the
  // textbook raise-SIGPIPE condition; MSG_NOSIGNAL keeps it an EPIPE
  // on that session only.
  subscriber.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*publisher)->Feed("<a><b/></a>").ok());
  ASSERT_TRUE((*publisher)->FinishDocument().ok());
  ExpectServiceHealthy((*server)->port());
}

// The mirror-image hazard in the blocking Client: after the server is
// gone, the first failed request consumes the socket's pending error
// (ECONNRESET) and every later request writes to a dead socket — the
// write-after-RST that raises SIGPIPE without MSG_NOSIGNAL, killing
// the embedding process (test runner, bench, example).
TEST(ServerHardeningTest, ClientRequestsAfterServerGoneFailWithoutSigpipe) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port(),
                                /*recv_timeout_ms=*/2000);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("//a").ok());

  (*server)->Stop();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE((*client)->Subscribe("//a").ok());
  }
}

TEST(ServerHardeningTest, ConnectionCapClosesExcessConnections) {
  ServerOptions options = SmallLimits();
  options.max_connections = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  // Round-trip on both admitted connections first, so the server has
  // demonstrably accepted them before the third one arrives.
  auto first = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Subscribe("//a").ok());
  auto second = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*second)->Subscribe("//a").ok());

  // The connection over the cap is refused by an immediate close.
  RawConn excess = RawConn::Connect((*server)->port());
  EXPECT_TRUE(excess.ReadEof());

  // Admitted connections are untouched, and a freed slot is reusable
  // (the reap of the closed connection is asynchronous: retry).
  ASSERT_TRUE((*first)->Feed("<a/>").ok());
  ASSERT_TRUE((*first)->FinishDocument().ok());
  second.value().reset();
  bool readmitted = false;
  for (int attempt = 0; attempt < 100 && !readmitted; ++attempt) {
    auto next = Client::Connect("127.0.0.1", (*server)->port());
    readmitted = next.ok() && (*next)->Subscribe("//a").ok();
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(readmitted);
}

TEST(ServerHardeningTest, IdleConnectionIsReaped) {
  ServerOptions options = SmallLimits();
  options.idle_timeout_ms = 500;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok());

  // Connect, send nothing, read: the server closes the connection
  // once it has been idle past the timeout (EOF well before the 5 s
  // receive timeout), freeing its fd and session state.
  RawConn idle = RawConn::Connect((*server)->port());
  EXPECT_TRUE(idle.ReadEof());
  ExpectServiceHealthy((*server)->port());
}

// Semantic errors must not tear the connection down: bad XPath, bad
// unsubscribe, DOC_END without a document.
TEST(ServerHardeningTest, SemanticErrorsKeepConnectionAlive) {
  auto server = Server::Start(SmallLimits());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  EXPECT_FALSE((*client)->Subscribe("//[[[not xpath").ok());
  EXPECT_FALSE((*client)->Unsubscribe(12345).ok());
  EXPECT_FALSE((*client)->FinishDocument().ok());  // no document open

  // All three rejections later, the connection still works end-to-end.
  auto sub = (*client)->Subscribe("//b", DeliveryMode::kEarliest);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE((*client)->Feed("<a><b/></a>").ok());
  EXPECT_TRUE((*client)->FinishDocument().ok());
  EXPECT_EQ((*client)->TakeEvents().size(), 2u);
}

}  // namespace
}  // namespace xpstream
