#include "server/wire.h"

#include <cstring>

namespace xpstream {
namespace wire {

void AppendU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size() + 1));
  AppendU8(out, static_cast<uint8_t>(type));
  out->append(payload);
}

void AppendMatch(std::string* out, uint32_t sub_id, uint64_t doc_index,
                 uint64_t ordinal) {
  AppendU32(out, 1 + 4 + 8 + 8);
  AppendU8(out, static_cast<uint8_t>(FrameType::kMatch));
  AppendU32(out, sub_id);
  AppendU64(out, doc_index);
  AppendU64(out, ordinal);
}

void AppendDocDone(std::string* out, uint64_t doc_index, uint32_t count,
                   std::string_view entries) {
  AppendU32(out, static_cast<uint32_t>(1 + 8 + 4 + entries.size()));
  AppendU8(out, static_cast<uint8_t>(FrameType::kDocDone));
  AppendU64(out, doc_index);
  AppendU32(out, count);
  out->append(entries);
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame;
  frame.reserve(5 + payload.size());
  AppendFrame(&frame, type, payload);
  return frame;
}

std::string EncodeSubscribe(uint8_t mode, std::string_view query) {
  std::string payload;
  payload.reserve(1 + query.size());
  AppendU8(&payload, mode);
  payload.append(query);
  return EncodeFrame(FrameType::kSubscribe, payload);
}

std::string EncodeUnsubscribe(uint32_t sub_id) {
  std::string payload;
  AppendU32(&payload, sub_id);
  return EncodeFrame(FrameType::kUnsubscribe, payload);
}

std::string EncodeSubscribeOk(uint32_t sub_id) {
  std::string payload;
  AppendU32(&payload, sub_id);
  return EncodeFrame(FrameType::kSubscribeOk, payload);
}

std::string EncodeDocOk(uint64_t doc_index) {
  std::string payload;
  AppendU64(&payload, doc_index);
  return EncodeFrame(FrameType::kDocOk, payload);
}

std::string EncodeMatch(uint32_t sub_id, uint64_t doc_index,
                        uint64_t ordinal) {
  std::string frame;
  AppendMatch(&frame, sub_id, doc_index, ordinal);
  return frame;
}

std::string EncodeError(const Status& status) {
  std::string payload;
  payload.reserve(1 + status.message().size());
  AppendU8(&payload, static_cast<uint8_t>(status.code()));
  payload.append(status.message());
  return EncodeFrame(FrameType::kError, payload);
}

const unsigned char* PayloadReader::Take(size_t n) {
  if (!ok_ || data_.size() - offset_ < n) {
    ok_ = false;
    return nullptr;
  }
  const unsigned char* at =
      reinterpret_cast<const unsigned char*>(data_.data()) + offset_;
  offset_ += n;
  return at;
}

uint8_t PayloadReader::ReadU8() {
  const unsigned char* at = Take(1);
  return at == nullptr ? 0 : at[0];
}

uint32_t PayloadReader::ReadU32() {
  const unsigned char* at = Take(4);
  if (at == nullptr) return 0;
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value = (value << 8) | at[i];
  return value;
}

uint64_t PayloadReader::ReadU64() {
  const unsigned char* at = Take(8);
  if (at == nullptr) return 0;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value = (value << 8) | at[i];
  return value;
}

std::string_view PayloadReader::Rest() {
  if (!ok_) return {};
  std::string_view rest = data_.substr(offset_);
  offset_ = data_.size();
  return rest;
}

Status DecodeError(std::string_view payload) {
  PayloadReader reader(payload);
  const uint8_t code = reader.ReadU8();
  std::string message(reader.Rest());
  if (!reader.ok()) {
    return Status::Internal("malformed error frame from server");
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      // An OK code inside an error frame is a peer bug; do not let it
      // masquerade as success.
      return Status::Internal("server sent an error frame with code OK");
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kNotWellFormed:
      return Status::NotWellFormed(std::move(message));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
  }
  return Status::Internal("unknown error code from server");
}

void FrameDecoder::Append(std::string_view bytes) {
  buffer_.erase(0, read_);
  read_ = 0;
  buffer_.append(bytes);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  const std::string_view pending = std::string_view(buffer_).substr(read_);
  if (pending.size() < 4) return std::optional<Frame>();
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length = (length << 8) | static_cast<unsigned char>(pending[i]);
  }
  if (length == 0) {
    return Status::InvalidArgument("frame with zero length (no type byte)");
  }
  if (length > max_frame_bytes_) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) +
        " bytes exceeds max_frame_bytes = " +
        std::to_string(max_frame_bytes_));
  }
  if (pending.size() < 4 + static_cast<size_t>(length)) {
    return std::optional<Frame>();  // partial frame, wait for more bytes
  }
  Frame frame;
  frame.type = static_cast<FrameType>(pending[4]);
  frame.payload.assign(pending.substr(5, length - 1));
  read_ += 4 + static_cast<size_t>(length);
  return std::optional<Frame>(std::move(frame));
}

}  // namespace wire
}  // namespace xpstream
