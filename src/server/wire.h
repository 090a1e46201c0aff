#ifndef XPSTREAM_SERVER_WIRE_H_
#define XPSTREAM_SERVER_WIRE_H_

/// \file
/// The xpstreamd wire protocol: length-prefixed binary frames over a
/// byte stream. Every frame is
///
///     u32  length   (big-endian; counts the type byte + payload)
///     u8   type     (FrameType)
///     u8[] payload  (length - 1 bytes, type-specific)
///
/// Integers inside payloads are big-endian. The protocol is strictly
/// request/response per connection for client-initiated frames (one
/// outstanding request at a time, answered in order), plus
/// server-initiated push frames (kMatch / kDocDone) that may arrive at
/// any point — clients must be prepared to see pushes while waiting for
/// an ack. docs/protocol.md is the prose spec; this header is the
/// authoritative layout.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xpstream {
namespace wire {

enum class FrameType : uint8_t {
  // client -> server
  kSubscribe = 0x01,    ///< u8 delivery mode (0 kAtEnd, 1 kEarliest) + query
  kUnsubscribe = 0x02,  ///< u32 subscription id
  kDocChunk = 0x03,     ///< raw XML bytes of the in-flight document
  kDocEnd = 0x04,       ///< empty; completes the in-flight document
  kCompact = 0x05,      ///< empty; CompactSubscriptions()
  kStats = 0x06,        ///< empty; server/engine counters

  // server -> client, acks (one per request, in request order)
  kSubscribeOk = 0x81,    ///< u32 assigned subscription id
  kUnsubscribeOk = 0x82,  ///< empty
  kDocOk = 0x83,          ///< u64 document index
  kCompactOk = 0x84,      ///< empty
  kStatsOk = 0x85,        ///< "key=value\n" text lines

  // server -> client, pushes
  kMatch = 0x90,    ///< u32 subscription id + u64 doc index + u64 ordinal
  kDocDone = 0x91,  ///< u64 doc + u32 n + n * (u32 subscription id + u8 hit)

  kError = 0xFF,  ///< u8 StatusCode + message text
};

/// One decoded frame.
struct Frame {
  FrameType type;
  std::string payload;
};

// --- primitive encoders (big-endian append) -------------------------

void AppendU8(std::string* out, uint8_t value);
void AppendU32(std::string* out, uint32_t value);
void AppendU64(std::string* out, uint64_t value);

// --- frame encoders (append one whole frame to an output buffer) -----

/// Appends `payload` wrapped in a length-prefixed frame to `out`.
void AppendFrame(std::string* out, FrameType type, std::string_view payload);
/// Appends a MATCH frame to `out`.
void AppendMatch(std::string* out, uint32_t sub_id, uint64_t doc_index,
                 uint64_t ordinal);
/// Appends a DOC_DONE frame to `out`; `entries` holds `count`
/// pre-encoded (u32 subscription id + u8 hit) pairs.
void AppendDocDone(std::string* out, uint64_t doc_index, uint32_t count,
                   std::string_view entries);

/// Wraps `payload` in a length-prefixed frame ready for the socket.
std::string EncodeFrame(FrameType type, std::string_view payload);

// --- typed frame builders --------------------------------------------

std::string EncodeSubscribe(uint8_t mode, std::string_view query);
std::string EncodeUnsubscribe(uint32_t sub_id);
std::string EncodeSubscribeOk(uint32_t sub_id);
std::string EncodeDocOk(uint64_t doc_index);
std::string EncodeMatch(uint32_t sub_id, uint64_t doc_index,
                        uint64_t ordinal);
std::string EncodeError(const Status& status);

/// Sequential big-endian reader over a frame payload. Reads past the
/// end flip ok() to false and return zeros; callers check once at the
/// end instead of after every field.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  /// The unread remainder (e.g. a trailing query string).
  std::string_view Rest();

  bool ok() const { return ok_; }
  /// True when every byte was consumed and no read overran.
  bool Done() const { return ok_ && offset_ == data_.size(); }

 private:
  const unsigned char* Take(size_t n);

  std::string_view data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

/// Reconstructs the Status carried by a kError payload; kInternal with
/// a diagnostic when the payload itself is malformed.
Status DecodeError(std::string_view payload);

/// Incremental frame extractor. Append() raw socket bytes, then call
/// Next() until it returns nullopt (need more bytes) or an error. A
/// declared length of zero (no type byte) or above `max_frame_bytes`
/// is a framing error: the stream is unrecoverable past that point and
/// the connection must be dropped after the error is reported.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `bytes`. The bytes of frames Next() already returned are
  /// dropped here, once per call, so decoding stays linear in the bytes
  /// received however many frames one Append() carries.
  void Append(std::string_view bytes);

  /// Extracts the next complete frame; nullopt when the buffer holds
  /// only a partial frame; non-OK exactly once on a framing violation.
  Result<std::optional<Frame>> Next();

  size_t buffered_bytes() const { return buffer_.size() - read_; }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t read_ = 0;  // offset of the first byte no frame consumed yet
};

}  // namespace wire
}  // namespace xpstream

#endif  // XPSTREAM_SERVER_WIRE_H_
