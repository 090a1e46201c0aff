#include "server/session.h"

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace xpstream {

namespace {
/// Headroom above the soft cap reserved for control acks: the
/// processing gate admits at most one request past the cap check, and
/// each request generates at most one ack, so a few slots suffice.
constexpr size_t kControlHeadroom = 8;
}  // namespace

Session::Session(int fd, uint64_t id, const SessionLimits& limits,
                 SessionHost* host, PushCounters* counters)
    : fd_(fd),
      id_(id),
      limits_(limits),
      host_(host),
      counters_(counters),
      decoder_(limits.max_frame_bytes),
      last_activity_(std::chrono::steady_clock::now()) {}

Session::~Session() { ::close(fd_); }

short Session::Interest() const {
  if (done_) return 0;
  short events = 0;
  if (!draining_ && queued_frames() < limits_.outbox_frames) events |= POLLIN;
  if (sent_ < out_.size()) events |= POLLOUT;
  return events;
}

void Session::HandleEvents(short revents) {
  if ((revents & POLLOUT) != 0) Flush();
  if ((revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0 &&
      !draining_ && !done_) {
    ReadInput();
  }
  // Frames parked behind a full buffer resume here once a flush made
  // room; also drains whatever a read buffered.
  if (!done_ && !draining_) ProcessFrames();
  Flush();
}

void Session::Flush() {
  const bool carries_push = last_push_end_ > sent_;
  while (!done_ && sent_ < out_.size()) {
    // MSG_NOSIGNAL: a peer that vanished with frames queued must
    // surface as EPIPE here, not as a SIGPIPE that kills a host
    // process embedding the server as a library.
    const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      last_activity_ = std::chrono::steady_clock::now();
      sent_ += static_cast<size_t>(n);
      if (carries_push) ++counters_->writes;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    done_ = true;  // peer gone or unrecoverable write error
    return;
  }
  ReleaseSent();
  if (draining_ && sent_ == out_.size()) {
    done_ = true;  // the ERROR frame is out; close for real
  }
}

void Session::ReleaseSent() {
  while (sent_frames_ < frame_ends_.size() &&
         frame_ends_[sent_frames_] <= sent_) {
    ++sent_frames_;
  }
  if (sent_ == out_.size()) {
    out_.clear();
    frame_ends_.clear();
    sent_ = sent_frames_ = last_push_end_ = 0;
    return;
  }
  // After a partial write: compacting only once the sent prefix
  // outweighs the rest keeps the copying linear in the bytes sent.
  if (sent_ < out_.size() - sent_) return;
  out_.erase(0, sent_);
  frame_ends_.erase(frame_ends_.begin(),
                    frame_ends_.begin() + static_cast<ptrdiff_t>(sent_frames_));
  for (size_t& end : frame_ends_) end -= sent_;
  last_push_end_ = last_push_end_ > sent_ ? last_push_end_ - sent_ : 0;
  sent_ = sent_frames_ = 0;
}

void Session::ReadInput() {
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd_, buffer, sizeof buffer);
    if (n > 0) {
      last_activity_ = std::chrono::steady_clock::now();
      decoder_.Append(std::string_view(buffer, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    done_ = true;  // EOF or read error; the server reaps and cleans up
    return;
  }
}

void Session::ProcessFrames() {
  // The gate: no request is admitted while the buffer is at the cap,
  // which both bounds control-ack headroom use and backpressures the
  // client (reading pauses via Interest() until the buffer drains).
  while (!done_ && !draining_ && queued_frames() < limits_.outbox_frames) {
    auto next = decoder_.Next();
    if (!next.ok()) {
      FailConnection(next.status());
      return;
    }
    if (!next->has_value()) return;  // partial frame buffered
    HandleFrame(**next);
  }
}

void Session::HandleFrame(const wire::Frame& frame) {
  using wire::FrameType;
  switch (frame.type) {
    case FrameType::kSubscribe: {
      wire::PayloadReader reader(frame.payload);
      const uint8_t mode = reader.ReadU8();
      const std::string_view query = reader.Rest();
      if (!reader.ok() || mode > 1) {
        FailConnection(
            Status::InvalidArgument("malformed SUBSCRIBE payload"));
        return;
      }
      auto sub_id = host_->OnSubscribe(this, mode, query);
      EnqueueControl(sub_id.ok() ? wire::EncodeSubscribeOk(*sub_id)
                                 : wire::EncodeError(sub_id.status()));
      return;
    }
    case FrameType::kUnsubscribe: {
      wire::PayloadReader reader(frame.payload);
      const uint32_t sub_id = reader.ReadU32();
      if (!reader.Done()) {
        FailConnection(
            Status::InvalidArgument("malformed UNSUBSCRIBE payload"));
        return;
      }
      Status status = host_->OnUnsubscribe(this, sub_id);
      EnqueueControl(status.ok()
                         ? wire::EncodeFrame(FrameType::kUnsubscribeOk, "")
                         : wire::EncodeError(status));
      return;
    }
    case FrameType::kDocChunk: {
      // Chunks are unacked (no per-chunk round trip). The first error
      // aborts the document server-side; the rest of its chunks are
      // discarded and DOC_END returns the remembered error.
      if (doc_error_.has_value()) return;
      Status status = host_->OnDocChunk(this, frame.payload);
      if (!status.ok()) doc_error_ = std::move(status);
      return;
    }
    case FrameType::kDocEnd: {
      if (!frame.payload.empty()) {
        FailConnection(Status::InvalidArgument("DOC_END carries no payload"));
        return;
      }
      if (doc_error_.has_value()) {
        EnqueueControl(wire::EncodeError(*doc_error_));
        doc_error_.reset();
        return;
      }
      auto doc_index = host_->OnDocEnd(this);
      EnqueueControl(doc_index.ok() ? wire::EncodeDocOk(*doc_index)
                                    : wire::EncodeError(doc_index.status()));
      return;
    }
    case FrameType::kCompact: {
      Status status = host_->OnCompact(this);
      EnqueueControl(status.ok()
                         ? wire::EncodeFrame(FrameType::kCompactOk, "")
                         : wire::EncodeError(status));
      return;
    }
    case FrameType::kStats: {
      EnqueueControl(
          wire::EncodeFrame(FrameType::kStatsOk, host_->OnStats(this)));
      return;
    }
    default:
      // Unknown or server-to-client type from a client: the peer is
      // broken; do not try to resynchronize its stream.
      FailConnection(Status::InvalidArgument(
          "unexpected frame type " +
          std::to_string(static_cast<unsigned>(frame.type))));
      return;
  }
}

void Session::FailConnection(const Status& status) {
  draining_ = true;
  EnqueueControl(wire::EncodeError(status));
}

bool Session::AdmitPush() {
  if (done_ || draining_ || queued_frames() >= limits_.outbox_frames) {
    ++dropped_frames_;
    return false;
  }
  return true;
}

bool Session::EndPush(size_t start) {
  frame_ends_.push_back(out_.size());
  last_push_end_ = out_.size();
  ++counters_->frames;
  return start == sent_;
}

bool Session::PushMatch(uint32_t sub_id, uint64_t doc_index,
                        uint64_t ordinal) {
  if (!AdmitPush()) return false;
  const size_t start = out_.size();
  wire::AppendMatch(&out_, sub_id, doc_index, ordinal);
  return EndPush(start);
}

bool Session::PushDocDone(uint64_t doc_index, uint32_t count,
                          std::string_view entries) {
  if (!AdmitPush()) return false;
  const size_t start = out_.size();
  wire::AppendDocDone(&out_, doc_index, count, entries);
  return EndPush(start);
}

void Session::EnqueueControl(std::string_view frame) {
  if (queued_frames() >= limits_.outbox_frames + kControlHeadroom) {
    // Headroom exhausted: the admission gate was bypassed somehow.
    // Closing beats leaving the client waiting for an ack forever.
    done_ = true;
    return;
  }
  out_.append(frame);
  frame_ends_.push_back(out_.size());
}

}  // namespace xpstream
