#ifndef XPSTREAM_SERVER_SESSION_H_
#define XPSTREAM_SERVER_SESSION_H_

/// \file
/// One accepted connection: socket I/O, frame decoding, request
/// dispatch into the SessionHost (the server core that owns the
/// Engine), and the connection's output buffer. Every outbound frame,
/// ack or push, is encoded straight into one contiguous byte buffer
/// that a flush hands to the kernel with one send(). The buffer records
/// where each unsent frame ends, so the backpressure policy still
/// counts frames:
///
///  * the session stops reading (and processing) requests while
///    >= outbox_frames frames are unsent — its own TCP sender
///    backpressures in turn;
///  * pushed frames (MATCH / DOC_DONE fan-out from other connections'
///    documents) are never allowed to stall the document stream: at the
///    cap they are dropped and counted in dropped_frames();
///  * control acks (answers to this connection's own requests) use a
///    small reserved headroom above the cap, so a request that was
///    admitted always gets its answer — the processing gate above
///    bounds how many can be outstanding.
///
/// All methods run on the server's event-loop thread.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "server/wire.h"

namespace xpstream {

class Session;

/// Protocol semantics, implemented by the server core. A Status return
/// becomes an ERROR frame on the wire; the connection stays up for
/// semantic errors (it is torn down only for framing violations).
class SessionHost {
 public:
  virtual ~SessionHost() = default;
  virtual Result<uint32_t> OnSubscribe(Session* session, uint8_t mode,
                                       std::string_view query) = 0;
  virtual Status OnUnsubscribe(Session* session, uint32_t sub_id) = 0;
  virtual Status OnDocChunk(Session* session, std::string_view bytes) = 0;
  virtual Result<uint64_t> OnDocEnd(Session* session) = 0;
  virtual Status OnCompact(Session* session) = 0;
  virtual std::string OnStats(Session* session) = 0;
};

struct SessionLimits {
  size_t max_frame_bytes = 1u << 20;
  size_t outbox_frames = 1024;  // soft cap; see class comment
};

/// Push-path counters shared by every session of one server (STATS
/// push_frames / push_writes). Loop thread only.
struct PushCounters {
  uint64_t frames = 0;  ///< push frames queued (shed ones excluded)
  uint64_t writes = 0;  ///< successful send()s of bytes holding a push
};

class Session {
 public:
  /// Takes ownership of `fd` (already non-blocking); closes it on
  /// destruction. `counters` must outlive the session.
  Session(int fd, uint64_t id, const SessionLimits& limits,
          SessionHost* host, PushCounters* counters);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  /// POLLIN/POLLOUT mask for the next poll iteration: POLLIN while
  /// request processing is admitted (not draining, fewer than
  /// outbox_frames frames unsent), POLLOUT while bytes wait to leave.
  /// 0 once done().
  short Interest() const;

  /// Reacts to poll() readiness: flushes writes, reads input, processes
  /// buffered frames (also after a flush, so frames parked behind a
  /// full buffer resume without new socket bytes), then flushes the
  /// acks those requests produced.
  void HandleEvents(short revents);

  /// Sends every queued byte with one send(), repeated only after a
  /// partial write. A failed send makes the session done().
  void Flush();

  /// True when the connection is finished (peer closed, I/O error, or
  /// a framing-violation ERROR was fully flushed) and the server should
  /// reap it.
  bool done() const { return done_; }

  /// Queue a server-initiated push frame, or drop it (counted) when the
  /// buffer is at the cap or the session is going away. Each returns
  /// true when its frame is the first byte queued since the buffer was
  /// last empty: the caller then owes the session a Flush() when its
  /// unit of work ends.
  bool PushMatch(uint32_t sub_id, uint64_t doc_index, uint64_t ordinal);
  bool PushDocDone(uint64_t doc_index, uint32_t count,
                   std::string_view entries);

  /// Queues an encoded ack/error frame for this session's own request.
  /// Uses the reserved headroom; a failure here is an invariant breach
  /// and closes the connection rather than hanging its client.
  void EnqueueControl(std::string_view frame);

  /// Frames queued and not yet completely sent.
  size_t queued_frames() const { return frame_ends_.size() - sent_frames_; }

  /// Pushed frames dropped on the cap so far (STATS surface).
  uint64_t dropped_frames() const { return dropped_frames_; }

  /// Last moment this connection made socket progress (bytes read or
  /// written; connection time initially). A session stuck before this
  /// point for longer than the server's idle timeout — including one
  /// draining an unflushed ERROR frame to a peer that never reads —
  /// gets reaped.
  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

 private:
  void ReadInput();
  void ProcessFrames();
  void HandleFrame(const wire::Frame& frame);
  /// Sends an ERROR and puts the session into draining: no more reads,
  /// flush what is queued, then close. For unrecoverable (framing /
  /// protocol) violations only.
  void FailConnection(const Status& status);
  /// Whether a push may be queued; counts the drop when not.
  bool AdmitPush();
  /// Records the push frame appended since `start`; see PushMatch.
  bool EndPush(size_t start);
  /// Forgets fully sent frames; drops the sent prefix of the buffer
  /// once it is at least as long as what remains.
  void ReleaseSent();

  const int fd_;
  const uint64_t id_;
  const SessionLimits limits_;
  SessionHost* const host_;
  PushCounters* const counters_;

  wire::FrameDecoder decoder_;
  std::string out_;                // encoded frames; [0, sent_) is sent
  size_t sent_ = 0;
  std::vector<size_t> frame_ends_;  // end offset in out_ of each frame
  size_t sent_frames_ = 0;          // leading frame_ends_ fully sent
  size_t last_push_end_ = 0;        // end of the newest push frame

  /// First error of the in-flight document (parse failure, byte cap);
  /// later chunks are discarded and DOC_END is answered with it, so
  /// the client sees exactly one error, at the request it waits on.
  std::optional<Status> doc_error_;

  bool draining_ = false;
  bool done_ = false;
  uint64_t dropped_frames_ = 0;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace xpstream

#endif  // XPSTREAM_SERVER_SESSION_H_
