#ifndef XPSTREAM_PUBLIC_SERVER_H_
#define XPSTREAM_PUBLIC_SERVER_H_

/// \file
/// xpstreamd — the dissemination service front-end. A Server owns one
/// Engine and speaks a small length-prefixed binary protocol over TCP
/// (docs/protocol.md): clients SUBSCRIBE XPath queries, stream XML
/// documents in chunks, and receive server-pushed MATCH frames at the
/// engine's commitment points (DeliveryMode::kEarliest reaches remote
/// subscribers mid-document) plus a DOC_DONE verdict frame per
/// completed document.
///
///   auto server = Server::Start({.engine = {.engine = "frontier"}});
///   auto client = Client::Connect("127.0.0.1", (*server)->port());
///   auto id     = (*client)->Subscribe("//book/title",
///                                      DeliveryMode::kEarliest);
///   (*client)->Feed("<book><title>streams</title></book>");
///   (*client)->FinishDocument();
///   for (const ClientEvent& ev : (*client)->TakeEvents()) { ... }
///
/// Concurrency model: one event-loop thread owns every connection and
/// all protocol work. Each connection has one output buffer capped in
/// frames: when it fills, the server stops reading that connection's
/// requests, and pushed MATCH/DOC_DONE frames to a slow subscriber are
/// dropped and counted (`dropped_frames` in STATS) rather than
/// stalling the document stream.
///
/// Document ingestion depends on ServerOptions::pipeline_workers:
///
///  * workers = 1 (default): the loop thread owns one Engine and
///    ingestion is serialized service-wide — one document in flight at
///    a time, owned by the connection that fed its first chunk, its
///    MATCH/DOC_DONE pushes delivered before the publisher's DOC_OK.
///  * workers >= 2: the server owns an EnginePool
///    (xpstream/pipeline.h). Documents are *per-connection* in flight:
///    each connection may stream one document at a time, concurrently
///    with every other connection. The loop thread parses chunks into
///    event batches; DOC_END submits the batch to the pool's bounded
///    queue and acks DOC_OK with the pool-assigned document index
///    immediately (kResourceExhausted when the queue is full — the
///    publisher's backpressure signal, retry after a drain). The
///    document's MATCH/DOC_DONE frames follow asynchronously when a
///    worker evaluates it — after the publisher's DOC_OK, unlike the
///    serial mode. Per document they keep the engine's deterministic
///    order (MATCH ordinals nondecreasing, then DOC_DONE); frames of
///    different documents interleave in evaluation-completion order.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xpstream/engine.h"

namespace xpstream {

struct ServerOptions {
  /// Address to bind; tests and single-host deployments use loopback.
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Configuration of the engine the server owns. EngineOptions::
  /// max_element_depth is overridden by the server-level default below
  /// when left at 0, so a hostile document cannot grow unbounded
  /// open-element state unless explicitly allowed.
  EngineOptions engine;

  /// Hard cap on one wire frame (length prefix + body). A frame
  /// declaring more is a framing violation: ERROR, then the connection
  /// closes. Bounds per-connection ingest buffering.
  size_t max_frame_bytes = 1u << 20;

  /// Cap on one document's cumulative DOC_CHUNK bytes. Exceeding it
  /// aborts the document with an ERROR frame; the connection survives.
  size_t max_document_bytes = 64u << 20;

  /// Open-element depth cap applied to the engine (0 = unlimited);
  /// used only when options.engine.max_element_depth is 0.
  size_t max_element_depth = 1024;

  /// Entity/charref expansion cap per document, in decoded bytes,
  /// applied to the engine (0 = unlimited); used only when
  /// options.engine.max_entity_expansion_bytes is 0. A billion-laughs
  /// style document is answered with a clean ERROR at DOC_END instead
  /// of unbounded decode work; the connection survives.
  size_t max_entity_expansion_bytes = 1u << 20;

  /// Engine replicas evaluating documents concurrently. 1 (the
  /// default) keeps the serial single-Engine service; >= 2 puts an
  /// EnginePool behind the protocol (see the file comment for how the
  /// ingestion semantics change). xpstreamd flag: --pipeline-workers.
  size_t pipeline_workers = 1;

  /// Documents that may wait in the pool's queue beyond the ones being
  /// evaluated (pipeline_workers >= 2 only). A DOC_END arriving with
  /// the queue full is answered kResourceExhausted and the document is
  /// dropped — publisher backpressure. xpstreamd: --doc-queue-depth.
  size_t doc_queue_depth = 16;

  /// Admission budget applied to the engine, in predicted peak bytes
  /// (0 = no admission control); used only when
  /// options.engine.memory_budget_bytes is 0. A SUBSCRIBE whose
  /// predicted peak would overrun it is answered with an ERROR frame
  /// carrying StatusCode::kResourceExhausted (or admitted degraded,
  /// per `admission`).
  size_t memory_budget_bytes = 0;

  /// Policy for over-budget SUBSCRIBEs, applied together with the
  /// server-level memory_budget_bytes above.
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// Per-connection output buffer cap, in unsent frames. At the cap
  /// the server stops reading the connection's own requests; pushed
  /// frames to it are dropped and counted in dropped_frames.
  size_t outbox_frames = 1024;

  /// SO_SNDBUF for accepted connections; 0 keeps the system default.
  /// Shrinking it makes backpressure observable at small scale.
  int so_sndbuf = 0;

  /// Cap on simultaneously open connections. Accepts past the cap are
  /// closed immediately, so a connection flood cannot exhaust fds or
  /// per-session memory.
  size_t max_connections = 1024;

  /// A connection making no socket progress (no bytes read or written)
  /// for this long is closed — covering both idle clients and stalled
  /// drains (a peer never reading its final ERROR frame). 0 disables.
  int idle_timeout_ms = 300'000;
};

/// The long-running service. Start() binds, listens and spawns the
/// event-loop thread; Stop() (or destruction) shuts it down, closing
/// live connections after the loop drains its current iteration.
class Server {
 public:
  /// Binds, listens, and spawns the event-loop thread; the returned
  /// Server is live until Stop() or destruction.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the actual one when options.port was 0).
  uint16_t port() const;

  /// Graceful shutdown: wakes the loop, joins its thread, closes every
  /// connection. Idempotent; called by the destructor.
  void Stop();

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// One server-initiated delivery observed by a Client, in arrival
/// order: a MATCH (subscription `sub_id` matched document `doc` at
/// event `ordinal`) or a DOC_DONE (per-subscription verdicts of one
/// completed document, in subscription registration order).
struct ClientEvent {
  /// Which push frame this event records.
  enum class Kind { kMatch, kDocDone };
  Kind kind;             ///< Frame type of this delivery.
  uint64_t doc = 0;      ///< Document index in the server's stream.
  uint32_t sub_id = 0;   ///< Matching subscription (kMatch only).
  uint64_t ordinal = 0;  ///< Deciding event ordinal (kMatch only).
  /// Per-subscription verdicts, registration order (kDocDone only).
  std::vector<std::pair<uint32_t, bool>> verdicts;
};

/// A blocking protocol client, used by tests, examples and the bench.
/// One outstanding request at a time; push frames that arrive while
/// waiting for an ack are collected and returned by TakeEvents().
/// Not thread-safe: drive one Client from one thread.
class Client {
 public:
  /// Connects; `recv_timeout_ms` bounds every blocking read so a dead
  /// server fails the call instead of hanging the caller.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port,
      int recv_timeout_ms = 30'000);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Subscribes an XPath query; returns the server-assigned wire id
  /// used in MATCH/DOC_DONE frames. Errors mirror Engine::Subscribe.
  Result<uint32_t> Subscribe(std::string_view xpath,
                             DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Removes a subscription previously created on this connection.
  Status Unsubscribe(uint32_t sub_id);

  /// Streams the next chunk of the current document (first call opens
  /// the document; on a serial server this claims the service-wide
  /// ingestion slot, on a pipelined one the connection's own).
  Status Feed(std::string_view chunk);

  /// Completes the current document; returns its index in the server's
  /// document stream. Pushed frames for this document (including this
  /// client's own DOC_DONE) are available via TakeEvents() afterwards —
  /// on a pipelined server they arrive asynchronously, so wait with
  /// WaitDocDone() before asserting on them.
  Result<uint64_t> FinishDocument();

  /// Blocks until document `doc`'s DOC_DONE push has arrived on this
  /// connection (it may already be in the recorded events), collecting
  /// pushes along the way for TakeEvents(). Fails when the receive
  /// timeout expires first. Subscribers on a pipelined server use this
  /// to rendezvous with a document's asynchronous evaluation.
  Status WaitDocDone(uint64_t doc);

  /// Triggers Engine::CompactSubscriptions() on the server.
  Status Compact();

  /// Server/engine counters as "key=value\n" lines (docs/protocol.md).
  Result<std::string> Stats();

  /// Drains and returns the pushes received so far, in arrival order.
  /// Also performs a non-blocking socket read first, so pushes sent
  /// since the last request are not missed.
  std::vector<ClientEvent> TakeEvents();

 private:
  class Impl;
  explicit Client(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_SERVER_H_
