#include "xpstream/server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/event_loop.h"
#include "server/session.h"
#include "server/wire.h"
#include "xml/parser.h"
#include "xpstream/pipeline.h"

namespace xpstream {

namespace {

/// One connection's in-flight document on a pipelined server: the
/// loop-thread parser and the self-contained event batch it
/// accumulates. The parser's scratch arena IS the batch's arena, so a
/// chunk's name/text bytes are copied exactly once (chunk -> arena),
/// the collected views stay valid for the buffer's lifetime, and the
/// finished buffer moves into the pool queue without another pass. The
/// parser enforces both caps, so a hostile document fails at its
/// publisher before it can occupy a pool queue slot. Unlike the serial
/// mode's service-wide publisher latch, each connection owns at most
/// one of these — publishers stream concurrently.
struct PendingDoc {
  EventBuffer events;
  CollectingSink sink{&events.events()};
  XmlParser parser;
  size_t bytes = 0;
  double parse_seconds = 0;  // loop-thread time spent in Feed/Finish

  PendingDoc(size_t max_depth, size_t entity_cap)
      : parser(&sink, ParserOptions(&events.arena())) {
    parser.SetMaxElementDepth(max_depth);
    parser.SetMaxEntityExpansionBytes(entity_cap);
  }

 private:
  static XmlParserOptions ParserOptions(Arena* arena) {
    XmlParserOptions options;
    options.arena = arena;
    return options;
  }
};

/// Wire ids travel through the engine and the pool as the decimal
/// subscription id strings the server registered ("42" <-> wire id 42).
uint32_t WireIdOf(const std::string& id) {
  uint32_t wire_id = 0;
  std::from_chars(id.data(), id.data() + id.size(), wire_id);
  return wire_id;
}

/// One pool result on its way from a worker to the loop thread. Plain
/// data: it names its subscription by wire id, never by Session (a
/// session may die before the loop routes the record).
struct PoolResult {
  enum class Kind : uint8_t { kMatch, kDocDone, kDocError };
  uint64_t doc;
  /// kMatch: the deciding event's ordinal. kDocDone: the index of the
  /// document's payload in PoolMailbox::dones.
  uint64_t arg;
  uint32_t wire_id;  // kMatch only
  Kind kind;
};

/// A DOC_DONE's payload: the subscription order the document was
/// evaluated under, and its verdicts in that order.
struct PoolDone {
  SubscriptionIds ids;
  std::vector<bool> verdicts;
};

/// Pool results in arrival order. DOC_DONE payloads sit apart, so the
/// records of the many MATCHes stay small.
struct PoolMailbox {
  std::vector<PoolResult> results;
  std::vector<PoolDone> dones;
};

}  // namespace

/// The server core: owns the Engine (or EnginePool), the listener, the
/// event loop and every Session; implements the protocol semantics
/// (SessionHost) and bridges engine/pool results into per-connection
/// push frames. Everything below runs on the loop thread except
/// Start/Stop/port — and, in pipelined mode, the PoolBridge callbacks,
/// which run on pool worker threads and only append to its mailbox.
class Server::Impl : public SessionHost {
 public:
  explicit Impl(ServerOptions options) : options_(std::move(options)) {}

  ~Impl() override { Stop(); }

  Status Start() {
    EngineOptions engine_options = options_.engine;
    if (engine_options.max_element_depth == 0) {
      engine_options.max_element_depth = options_.max_element_depth;
    }
    if (engine_options.max_entity_expansion_bytes == 0) {
      engine_options.max_entity_expansion_bytes =
          options_.max_entity_expansion_bytes;
    }
    // A service's document stream is unbounded and nothing reads the
    // per-document verdict history, so neither executor keeps one.
    engine_options.keep_history = false;
    effective_depth_ = engine_options.max_element_depth;
    effective_entity_cap_ = engine_options.max_entity_expansion_bytes;

    auto loop = EventLoop::Create();
    if (!loop.ok()) return loop.status();
    loop_ = std::move(loop).value();

    if (options_.pipeline_workers >= 2) {
      PipelineOptions pipeline_options;
      pipeline_options.engine = engine_options;
      pipeline_options.workers = options_.pipeline_workers;
      pipeline_options.queue_depth = options_.doc_queue_depth;
      auto pool = EnginePool::Create(pipeline_options);
      if (!pool.ok()) return pool.status();
      pool_ = std::move(pool).value();
      pool_->SetSink(&pool_sink_);
    } else {
      auto engine = Engine::Create(engine_options);
      if (!engine.ok()) return engine.status();
      engine_ = std::move(engine).value();
      engine_->SetSink(&sink_);
    }

    XPS_RETURN_IF_ERROR(Listen());
    loop_->SetAfterPosted([this] { FlushPushes(nullptr); });
    loop_->Add(
        listen_fd_, [] { return static_cast<short>(POLLIN); },
        [this](short) { AcceptConnections(); });
    if (options_.idle_timeout_ms > 0) {
      // A few ticks per timeout keeps reap latency a fraction of the
      // timeout itself without waking an idle loop too often.
      loop_->SetTick([this] { ReapIdleSessions(); },
                     std::max(10, options_.idle_timeout_ms / 4));
    }

    // Bind + listen happened on this thread, so port() is valid and a
    // Client::Connect issued right after Start() cannot be refused.
    thread_ = std::thread([this] { loop_->Run(); });
    return Status::OK();
  }

  void Stop() {
    if (thread_.joinable()) {
      loop_->RequestStop();
      thread_.join();
      // Loop-thread state is ours again (join = happens-before): close
      // live connections so blocked clients see EOF, stop listening.
      pending_.clear();
      sessions_.clear();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (spare_fd_ >= 0) {
      ::close(spare_fd_);
      spare_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

  // --- SessionHost (loop thread) -----------------------------------

  Result<uint32_t> OnSubscribe(Session* session, uint8_t mode,
                               std::string_view query) override {
    const uint32_t wire_id = next_wire_id_++;
    const DeliveryMode delivery =
        mode == 0 ? DeliveryMode::kAtEnd : DeliveryMode::kEarliest;
    ++routes_generation_;  // a pool snapshot is replaced, failed or not
    if (pool_ != nullptr) {
      // The pool quiesces in-flight documents internally, so a
      // subscribe under live concurrent traffic is legal and atomic
      // across replicas.
      XPS_RETURN_IF_ERROR(
          pool_->Subscribe(std::to_string(wire_id), query, delivery));
    } else {
      XPS_RETURN_IF_ERROR(
          engine_->Subscribe(std::to_string(wire_id), query, delivery));
    }
    SetOwner(wire_id, session);
    return wire_id;
  }

  Status OnUnsubscribe(Session* session, uint32_t sub_id) override {
    auto it = owners_.find(sub_id);
    // A subscription is private to the connection that made it; another
    // connection's id is indistinguishable from an unknown one.
    if (it == owners_.end() || it->second != session) {
      return Status::NotFound("unknown subscription id: " +
                              std::to_string(sub_id));
    }
    return Unsubscribe(sub_id);
  }

  Status OnDocChunk(Session* session, std::string_view bytes) override {
    if (pool_ != nullptr) return OnPoolDocChunk(session, bytes);
    if (publisher_ != nullptr && publisher_ != session) {
      return Status::InvalidArgument(
          "another connection's document is in flight");
    }
    if (publisher_ == nullptr) {
      publisher_ = session;
      publisher_seen_ = true;
      doc_bytes_ = 0;
    }
    doc_bytes_ += bytes.size();
    if (doc_bytes_ > options_.max_document_bytes) {
      AbortDocument();
      return Status::InvalidArgument(
          "document exceeds max_document_bytes = " +
          std::to_string(options_.max_document_bytes));
    }
    const auto start = std::chrono::steady_clock::now();
    Status status = engine_->Feed(bytes);
    // Serial mode interleaves parsing and matching inside Feed, so this
    // clocks ingest (a lower bound on pure parse throughput); the
    // pipelined path times the loop-thread parser alone.
    parse_seconds_total_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    parse_bytes_total_ += bytes.size();
    if (!status.ok()) AbortDocument();
    FlushPushes(session);
    return status;
  }

  Result<uint64_t> OnDocEnd(Session* session) override {
    if (pool_ != nullptr) return OnPoolDocEnd(session);
    if (publisher_ != session) {
      return Status::InvalidArgument(
          "DOC_END without an open document on this connection");
    }
    publisher_ = nullptr;
    doc_bytes_ = 0;
    // FinishDocument drives the sink bridge synchronously: MATCH and
    // DOC_DONE frames are queued to subscriber buffers before the
    // publisher's DOC_OK is (FIFO per connection keeps that order on
    // the wire). It aborts internally on failure.
    Status status = engine_->FinishDocument();
    FlushDeferredUnsubs();
    const uint64_t doc = engine_->documents_seen() - 1;
    FlushPushes(session);
    if (!status.ok()) return status;
    return doc;
  }

  Status OnCompact(Session*) override {
    ++routes_generation_;  // a pool snapshot is replaced, failed or not
    return pool_ != nullptr ? pool_->CompactSubscriptions()
                            : engine_->CompactSubscriptions();
  }

  std::string OnStats(Session* session) override {
    std::string text;
    auto line = [&text](std::string_view key, uint64_t value) {
      text.append(key);
      text.push_back('=');
      text.append(std::to_string(value));
      text.push_back('\n');
    };
    // Subscription/planner state is identical on every pool replica and
    // safe to read from the loop thread (the mutation thread) while
    // documents evaluate; document counters and peaks come from the
    // pool, which folds them across replicas.
    const Engine& engine = pool_ != nullptr ? pool_->replica(0) : *engine_;
    text.append("engine=").append(engine.engine_name()).push_back('\n');
    line("documents_seen", pool_ != nullptr ? pool_->documents_done()
                                            : engine.documents_seen());
    line("subscriptions", engine.NumSubscriptions());
    line("eval_slots", engine.num_eval_slots());
    line("tombstoned_slots", engine.tombstoned_slots());
    line("automaton_rebuilds", engine.automaton_rebuilds());
    line("connections", sessions_.size());
    line("dropped_frames", session->dropped_frames());
    line("outbox_capacity", options_.outbox_frames);
    line("push_frames", push_counters_.frames);
    line("push_writes", push_counters_.writes);
    line("peak_table_entries", pool_ != nullptr ? pool_->peak_table_entries()
                                                : engine.peak_table_entries());
    line("peak_buffered_bytes", pool_ != nullptr
                                    ? pool_->peak_buffered_bytes()
                                    : engine.peak_buffered_bytes());
    line("predicted_peak_bytes", engine.predicted_peak_bytes());
    line("memory_budget_bytes", options_.engine.memory_budget_bytes);
    line("admission_rejects", engine.admission_rejects());
    line("admission_degrades", engine.admission_degrades());
    // Parse-substrate gauges. arena_bytes is the zero-copy parser's
    // retained scratch: the serial engine's own arena, or (pipelined)
    // the high-water EventBuffer arena among loop-thread parses.
    // parse_mb_per_s is the byte-weighted running mean over completed
    // feeds; see docs/protocol.md for what each mode clocks.
    line("arena_bytes", pool_ != nullptr
                            ? arena_peak_bytes_
                            : engine.stats().arena_bytes().peak());
    {
      const double mbps =
          parse_seconds_total_ > 0
              ? parse_bytes_total_ / 1e6 / parse_seconds_total_
              : 0.0;
      char formatted[32];
      std::snprintf(formatted, sizeof formatted, "%.2f", mbps);
      text.append("parse_mb_per_s=").append(formatted).push_back('\n');
    }
    // The ingestion pipeline's own gauges. In serial mode the "queue"
    // is the service-wide publisher latch: depth 0, in flight 0 or 1.
    if (pool_ != nullptr) {
      line("pipeline_workers", pool_->workers());
      line("queue_depth", pool_->queue_depth());
      line("queue_peak", pool_->queue_peak());
      line("docs_in_flight", pool_->docs_in_flight());
      line("queue_rejects", pool_->queue_rejects());
      line("doc_errors", pool_doc_errors_);
    } else {
      line("pipeline_workers", 1);
      line("queue_depth", 0);
      line("queue_peak", publisher_seen_ ? 1 : 0);
      line("docs_in_flight", publisher_ != nullptr ? 1 : 0);
      line("queue_rejects", 0);
      line("doc_errors", 0);
    }
    return text;
  }

 private:
  /// ResultSink face of the server: engine decisions become outbound
  /// frames. Callbacks arrive on the loop thread (the engine is driven
  /// there), inside Feed/FinishDocument, and index the engine's current
  /// subscription order, which cannot change mid-document.
  struct Bridge : ResultSink {
    explicit Bridge(Impl* impl) : impl(impl) {}
    void OnMatch(size_t slot, size_t doc, size_t ordinal) override {
      const std::vector<std::string>& ids = impl->engine_->subscription_ids();
      if (slot >= ids.size()) return;  // defensive: ids/executor skew
      impl->PushMatch(WireIdOf(ids[slot]), doc, ordinal);
    }
    void OnDocumentDone(size_t doc,
                        const std::vector<bool>& verdicts) override {
      impl->PushDocDone(impl->engine_->subscription_ids(), doc, verdicts);
    }
    Impl* impl;
  };

  /// PoolSink face of the pipelined server. Callbacks arrive on pool
  /// worker threads and append plain records to one mailbox: no
  /// closure, no snapshot copy per MATCH (its wire id is read from the
  /// immutable snapshot on the worker) and, once the vectors have grown,
  /// no allocation. Only the record that finds the mailbox empty posts
  /// a drain, with one wake byte; later records ride that drain. No
  /// record is stranded: the drain empties the mailbox under the same
  /// mutex, so a record lands either before the swap, and the posted
  /// drain takes it, or after it, and posts the next drain. One worker
  /// appends all of a document's records in order, so its MATCHes still
  /// precede its DOC_DONE.
  struct PoolBridge : PoolSink {
    explicit PoolBridge(Impl* impl) : impl(impl) {}
    void OnMatch(uint64_t doc, size_t sub, size_t ordinal,
                 const SubscriptionIds& ids) override {
      if (sub >= ids->size()) return;  // defensive: ids/executor skew
      Append({doc, ordinal, WireIdOf((*ids)[sub]), PoolResult::Kind::kMatch},
             nullptr);
    }
    void OnDocumentDone(uint64_t doc, const SubscriptionIds& ids,
                        std::vector<bool> verdicts,
                        std::vector<size_t> /*decided_at*/) override {
      PoolDone done{ids, std::move(verdicts)};
      Append({doc, 0, 0, PoolResult::Kind::kDocDone}, &done);
    }
    void OnDocumentError(uint64_t doc, Status /*status*/) override {
      // The publisher was acked at DOC_END (submission succeeded) and
      // the batch passed full parse validation there, so evaluation
      // errors are unexpected; count them for STATS visibility.
      Append({doc, 0, 0, PoolResult::Kind::kDocError}, nullptr);
    }

    void Append(PoolResult result, PoolDone* done) {
      bool first;
      {
        std::lock_guard<std::mutex> lock(mutex);
        first = mailbox.results.empty();
        if (done != nullptr) {
          result.arg = mailbox.dones.size();
          mailbox.dones.push_back(std::move(*done));
        }
        mailbox.results.push_back(result);
      }
      if (first) {
        Impl* server = impl;
        server->loop_->Post([server] { server->RoutePoolResults(); });
      }
    }

    Impl* impl;
    std::mutex mutex;
    PoolMailbox mailbox;  // guarded by mutex
  };

  /// Loop thread: takes every record in the pool mailbox and routes
  /// them in order. The loop's after-posted FlushPushes then sends once
  /// for the whole batch. Both vectors keep their capacity across the
  /// swap, so a steady stream of results allocates nothing.
  void RoutePoolResults() {
    {
      std::lock_guard<std::mutex> lock(pool_sink_.mutex);
      std::swap(pool_sink_.mailbox, drained_);
    }
    for (const PoolResult& result : drained_.results) {
      switch (result.kind) {
        case PoolResult::Kind::kMatch:
          PushMatch(result.wire_id, result.doc, result.arg);
          break;
        case PoolResult::Kind::kDocDone: {
          const PoolDone& done = drained_.dones[result.arg];
          PushDocDone(*done.ids, result.doc, done.verdicts);
          break;
        }
        case PoolResult::Kind::kDocError:
          ++pool_doc_errors_;
          break;
      }
    }
    drained_.results.clear();
    drained_.dones.clear();
  }

  Status OnPoolDocChunk(Session* session, std::string_view bytes) {
    auto it = pending_.find(session);
    if (it == pending_.end()) {
      it = pending_
               .emplace(session, std::make_unique<PendingDoc>(
                                     effective_depth_, effective_entity_cap_))
               .first;
    }
    PendingDoc& pending = *it->second;
    pending.bytes += bytes.size();
    if (pending.bytes > options_.max_document_bytes) {
      pending_.erase(it);
      return Status::InvalidArgument(
          "document exceeds max_document_bytes = " +
          std::to_string(options_.max_document_bytes));
    }
    const auto start = std::chrono::steady_clock::now();
    Status status = pending.parser.Feed(bytes);
    pending.parse_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // On a parse error the session latches doc_error_ and answers the
    // eventual DOC_END from it without calling back here, so the
    // pending state must go now, not at the boundary.
    if (!status.ok()) pending_.erase(it);
    return status;
  }

  Result<uint64_t> OnPoolDocEnd(Session* session) {
    auto it = pending_.find(session);
    if (it == pending_.end()) {
      return Status::InvalidArgument(
          "DOC_END without an open document on this connection");
    }
    std::unique_ptr<PendingDoc> pending = std::move(it->second);
    pending_.erase(it);
    const auto start = std::chrono::steady_clock::now();
    Status finish = pending->parser.Finish();
    pending->parse_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    XPS_RETURN_IF_ERROR(std::move(finish));
    // A fully parsed document contributes to the parse-throughput mean
    // and the arena high-water mark (read before the buffer moves away).
    parse_bytes_total_ += pending->bytes;
    parse_seconds_total_ += pending->parse_seconds;
    arena_peak_bytes_ = std::max(arena_peak_bytes_,
                                 pending->events.arena().FootprintBytes());
    // The batch is fully parsed and validated; hand it to the pool.
    // kResourceExhausted (queue full) reaches the publisher as the
    // DOC_END answer — its backpressure signal; the document is
    // dropped and may be resent after a drain.
    uint64_t doc = 0;
    XPS_RETURN_IF_ERROR(
        pool_->TrySubmitEvents(std::move(pending->events), &doc));
    // DOC_OK carries the pool-assigned index; the document's MATCH /
    // DOC_DONE pushes follow asynchronously when a worker evaluates it.
    return doc;
  }

  Status Listen() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                    &address.sin_addr) != 1) {
      return Status::InvalidArgument("unparseable bind_address: " +
                                     options_.bind_address);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
               sizeof address) != 0) {
      return Status::Internal("bind(" + options_.bind_address + ":" +
                              std::to_string(options_.port) +
                              ") failed: errno " + std::to_string(errno));
    }
    if (::listen(listen_fd_, 128) != 0) {
      return Status::Internal("listen() failed: errno " +
                              std::to_string(errno));
    }
    socklen_t length = sizeof address;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      &length) != 0) {
      return Status::Internal("getsockname() failed");
    }
    port_ = ntohs(address.sin_port);
    // Reserved fd for the EMFILE path in AcceptConnections: without
    // one, fd exhaustion leaves the pending connection in the backlog
    // and level-triggered POLLIN busy-spins the loop.
    spare_fd_ = ::open("/dev/null", O_RDONLY);
    return SetNonBlocking(listen_fd_);
  }

  void AcceptConnections() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if ((errno == EMFILE || errno == ENFILE) && spare_fd_ >= 0) {
          // Out of fds with a connection still queued: poll() would
          // re-fire POLLIN forever. Burn the reserve to accept it,
          // close it (an overloaded-server refusal), re-reserve.
          ::close(spare_fd_);
          const int victim = ::accept(listen_fd_, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          spare_fd_ = ::open("/dev/null", O_RDONLY);
          continue;
        }
        return;  // EAGAIN (backlog drained) or unrecoverable
      }
      if (sessions_.size() >= options_.max_connections) {
        ::close(fd);  // over the cap: refuse by immediate close
        continue;
      }
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (options_.so_sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                     sizeof options_.so_sndbuf);
      }
      SessionLimits limits;
      limits.max_frame_bytes = options_.max_frame_bytes;
      limits.outbox_frames = options_.outbox_frames;
      auto session = std::make_unique<Session>(fd, next_session_id_++,
                                               limits, this, &push_counters_);
      Session* raw = session.get();
      sessions_[fd] = std::move(session);
      loop_->Add(
          fd, [raw] { return raw->Interest(); },
          [this, fd, raw](short revents) {
            raw->HandleEvents(revents);
            if (raw->done()) RemoveSession(fd);
          });
    }
  }

  void RemoveSession(int fd) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) return;
    Session* session = it->second.get();
    // A publisher dying mid-document must not wedge the service: drop
    // the partial document so the next publisher can start clean. On a
    // pipelined server only this connection's own pending parse goes —
    // other publishers' documents are untouched.
    if (pool_ != nullptr) {
      pending_.erase(session);
    } else if (publisher_ == session) {
      AbortDocument();
    }
    std::vector<uint32_t> owned;
    for (const auto& [wire_id, owner] : owners_) {
      if (owner == session) owned.push_back(wire_id);
    }
    for (uint32_t wire_id : owned) {
      // The pool removes even with documents in flight. The serial
      // engine refuses while a document streams: detach now (stop
      // delivering) and unsubscribe at the document boundary.
      if (!Unsubscribe(wire_id).ok()) {
        SetOwner(wire_id, nullptr);
        deferred_unsubs_.push_back(wire_id);
      }
    }
    loop_->Remove(fd);  // deferred reap; the handler object stays valid
    sessions_.erase(it);
  }

  void AbortDocument() {
    engine_->AbortDocument();
    publisher_ = nullptr;
    doc_bytes_ = 0;
    FlushDeferredUnsubs();
  }

  void FlushDeferredUnsubs() {
    std::vector<uint32_t> retry;
    for (uint32_t wire_id : deferred_unsubs_) {
      // The engine kept the subscription: it stays detached, and the
      // next boundary tries again.
      if (!Unsubscribe(wire_id).ok()) retry.push_back(wire_id);
    }
    deferred_unsubs_ = std::move(retry);
  }

  void ReapIdleSessions() {
    const auto cutoff =
        std::chrono::steady_clock::now() -
        std::chrono::milliseconds(options_.idle_timeout_ms);
    std::vector<int> idle;
    for (const auto& [fd, session] : sessions_) {
      if (session->last_activity() < cutoff) idle.push_back(fd);
    }
    for (int fd : idle) RemoveSession(fd);
  }

  /// Removes `wire_id` from whichever executor runs, then from
  /// owners_. Fails, changing nothing, where the executor refuses: the
  /// serial engine does while a document streams.
  Status Unsubscribe(uint32_t wire_id) {
    ++routes_generation_;  // a pool snapshot is replaced, failed or not
    const std::string id = std::to_string(wire_id);
    XPS_RETURN_IF_ERROR(pool_ != nullptr ? pool_->Unsubscribe(id)
                                         : engine_->Unsubscribe(id));
    SetOwner(wire_id, nullptr);
    return Status::OK();
  }

  /// The one writer of owners_: `owner` becomes `wire_id`'s connection,
  /// or, when nullptr, the id has none (unsubscribed, or detached
  /// because its connection closed mid-document). Bumps
  /// routes_generation_, so done_routes_ never names a dead Session.
  void SetOwner(uint32_t wire_id, Session* owner) {
    if (owner != nullptr) {
      owners_[wire_id] = owner;
    } else {
      owners_.erase(wire_id);
    }
    ++routes_generation_;
  }

  /// Both executors' MATCH route. A subscription removed since its
  /// document was evaluated, or detached, has no owner and gets nothing.
  void PushMatch(uint32_t wire_id, uint64_t doc, uint64_t ordinal) {
    auto it = owners_.find(wire_id);
    if (it == owners_.end()) return;
    if (it->second->PushMatch(wire_id, doc, ordinal)) OweFlush(it->second);
  }

  /// Both executors' DOC_DONE route: `ids` is the subscription order
  /// the verdicts follow (the serial engine's, or the pool snapshot the
  /// document was evaluated under). One pass over done_routes_ writes
  /// each verdict into its owner's encoded entries; the entries keep
  /// `ids` order within each connection.
  void PushDocDone(const std::vector<std::string>& ids, uint64_t doc,
                   const std::vector<bool>& verdicts) {
    if (&ids != done_routes_ids_ ||
        routes_generation_ != done_routes_generation_) {
      RebuildDoneRoutes(ids);
    }
    const size_t n = std::min(verdicts.size(), ids.size());
    for (DoneRoute& route : done_routes_) {
      uint32_t count = 0;
      for (; count < route.positions.size() && route.positions[count] < n;
           ++count) {
        // The verdict byte follows the entry's u32 wire id.
        route.entries[kDoneEntryBytes * count + 4] =
            verdicts[route.positions[count]] ? 1 : 0;
      }
      if (count == 0) continue;
      if (route.owner->PushDocDone(
              doc, count,
              std::string_view(route.entries.data(),
                               kDoneEntryBytes * count))) {
        OweFlush(route.owner);
      }
    }
  }

  /// Resolves every position of `ids` against owners_, once per change
  /// of the order or of an owner instead of once per document.
  void RebuildDoneRoutes(const std::vector<std::string>& ids) {
    done_routes_.clear();
    std::unordered_map<Session*, size_t> route_of;
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t wire_id = WireIdOf(ids[i]);
      auto owner = owners_.find(wire_id);
      if (owner == owners_.end()) continue;
      const auto [slot, fresh] =
          route_of.emplace(owner->second, done_routes_.size());
      if (fresh) done_routes_.push_back(DoneRoute{owner->second, {}, {}});
      DoneRoute& route = done_routes_[slot->second];
      route.positions.push_back(static_cast<uint32_t>(i));
      wire::AppendU32(&route.entries, wire_id);
      wire::AppendU8(&route.entries, 0);  // the verdict, set per document
    }
    done_routes_ids_ = &ids;
    done_routes_generation_ = routes_generation_;
  }

  /// Notes that `session` got its first unsent push of the current
  /// unit of work. A session whose buffer already held bytes needs no
  /// note: those are waiting for POLLOUT, or for its own handler's
  /// flush.
  void OweFlush(Session* session) { flush_fds_.push_back(session->fd()); }

  /// Write-through: ends a unit of work (a serial DOC_CHUNK or DOC_END,
  /// a drained batch of pool results) by flushing exactly the sessions
  /// it queued pushes for. A session whose send fails is reaped here,
  /// because done() zeroes its poll interest and no later poll round
  /// would report it; `current`, whose request is being handled, is
  /// left to its own handler, which reaps it on return.
  void FlushPushes(Session* current) {
    for (size_t i = 0; i < flush_fds_.size(); ++i) {
      auto it = sessions_.find(flush_fds_[i]);
      if (it == sessions_.end()) continue;  // reaped since its push
      Session* session = it->second.get();
      session->Flush();
      if (session->done() && session != current) {
        RemoveSession(flush_fds_[i]);
      }
    }
    flush_fds_.clear();
  }

  const ServerOptions options_;
  /// Effective depth / entity-expansion caps (engine-level option, or
  /// the server-level overlay) — enforced by the loop-thread parser on
  /// the pipelined ingest path.
  size_t effective_depth_ = 0;
  size_t effective_entity_cap_ = 0;
  /// The executors' sinks. Declared before engine_ and pool_, so they
  /// outlive both: the pool joins the workers that call into
  /// pool_sink_ before it goes.
  Bridge sink_{this};
  PoolBridge pool_sink_{this};
  std::unique_ptr<Engine> engine_;  // serial mode (pipeline_workers = 1)
  std::unique_ptr<EventLoop> loop_;
  /// Pipelined mode. Declared after loop_: destroyed first, joining
  /// the worker threads that Post() into the loop before it goes.
  std::unique_ptr<EnginePool> pool_;
  int listen_fd_ = -1;
  int spare_fd_ = -1;  // EMFILE reserve; see AcceptConnections
  uint16_t port_ = 0;
  std::thread thread_;

  // --- loop-thread state -------------------------------------------
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  /// Sessions owed a write-through flush when the current unit of work
  /// ends (fds, so a session reaped meanwhile is simply not found).
  std::vector<int> flush_fds_;
  PushCounters push_counters_;
  /// Wire id -> owning connection, for every subscription the
  /// executor holds and delivers to. An id detached because its
  /// connection closed mid-document is absent, and waits in
  /// deferred_unsubs_. Written only by SetOwner.
  std::unordered_map<uint32_t, Session*> owners_;
  /// One DOC_DONE entry is a u32 wire id and a u8 verdict.
  static constexpr size_t kDoneEntryBytes = 5;
  /// One connection's share of a DOC_DONE: the positions of its
  /// subscriptions in the routed order, ascending, and their encoded
  /// entries, whose verdict bytes PushDocDone writes per document.
  struct DoneRoute {
    Session* owner;
    std::vector<uint32_t> positions;
    std::string entries;
  };
  /// The DOC_DONE routing table, built for the order at
  /// done_routes_ids_ when routes_generation_ read
  /// done_routes_generation_, and rebuilt when either differs. It names
  /// Session pointers, so this is a memory-safety invariant: every
  /// write to owners_ bumps routes_generation_ (SetOwner: subscribe,
  /// unsubscribe, detach on close), and so does every executor
  /// mutation, because the pool then replaces its snapshot and a new
  /// one may reuse a freed one's address. The serial engine's order
  /// lives at one address, so only the generation tells its changes.
  std::vector<DoneRoute> done_routes_;
  const std::vector<std::string>* done_routes_ids_ = nullptr;  // compared only
  uint64_t done_routes_generation_ = 0;
  uint64_t routes_generation_ = 0;
  /// Pipelined mode: the pool results being routed; it trades vectors
  /// with pool_sink_'s mailbox at each drain.
  PoolMailbox drained_;
  uint32_t next_wire_id_ = 1;
  uint64_t next_session_id_ = 1;
  Session* publisher_ = nullptr;  // connection feeding the open document
  bool publisher_seen_ = false;   // any document ever opened (STATS)
  size_t doc_bytes_ = 0;          // its cumulative chunk bytes
  std::vector<uint32_t> deferred_unsubs_;
  /// Pipelined mode: each connection's in-flight parse (at most one).
  std::unordered_map<Session*, std::unique_ptr<PendingDoc>> pending_;
  /// Pipelined mode: documents whose evaluation failed after a
  /// successful submit (unexpected — the batch was parse-validated).
  uint64_t pool_doc_errors_ = 0;
  /// Parse-throughput accounting for STATS (loop thread). Serial mode
  /// clocks Engine::Feed (parse+match interleaved); pipelined mode
  /// clocks the loop-thread parser alone.
  uint64_t parse_bytes_total_ = 0;
  double parse_seconds_total_ = 0;
  /// Pipelined mode: high-water retained arena footprint among
  /// completed loop-thread parses.
  size_t arena_peak_bytes_ = 0;
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto impl = std::make_unique<Impl>(options);
  XPS_RETURN_IF_ERROR(impl->Start());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

uint16_t Server::port() const { return impl_->port(); }

void Server::Stop() { impl_->Stop(); }

}  // namespace xpstream
