// wire::FrameDecoder: frames come out whole, in order and byte-exact
// however the byte stream is cut into Append() calls; a partial frame
// waits for more bytes; and a framing violation (zero length, or a
// length over max_frame_bytes) is reported right after the complete
// frames before it, and keeps being reported.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "server/wire.h"

namespace xpstream {
namespace {

using wire::Frame;
using wire::FrameDecoder;
using wire::FrameType;

/// Every complete frame the decoder holds; fails the test on a framing
/// error.
std::vector<Frame> Drain(FrameDecoder* decoder) {
  std::vector<Frame> frames;
  while (true) {
    auto next = decoder->Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) return frames;
    frames.push_back(std::move(**next));
  }
}

/// `count` frames of assorted types and payload sizes, empty payloads
/// included.
std::vector<Frame> SampleFrames(size_t count) {
  static constexpr FrameType kTypes[] = {FrameType::kDocChunk,
                                         FrameType::kMatch,
                                         FrameType::kDocEnd};
  std::vector<Frame> frames;
  for (size_t i = 0; i < count; ++i) {
    Frame frame;
    frame.type = kTypes[i % 3];
    frame.payload.assign(i * 7 % 50, static_cast<char>('a' + i % 26));
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::string Encode(const std::vector<Frame>& frames) {
  std::string bytes;
  for (const Frame& frame : frames) {
    wire::AppendFrame(&bytes, frame.type, frame.payload);
  }
  return bytes;
}

void ExpectSameFrames(const std::vector<Frame>& got,
                      const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
  }
}

TEST(FrameDecoderTest, DecodesManyFramesFromOneAppend) {
  const std::vector<Frame> frames = SampleFrames(5000);
  FrameDecoder decoder(1u << 20);
  decoder.Append(Encode(frames));
  ExpectSameFrames(Drain(&decoder), frames);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, FramesSplitAcrossAppendsAtEveryByteOffset) {
  const std::vector<Frame> frames = SampleFrames(7);
  const std::string bytes = Encode(frames);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    FrameDecoder decoder(1u << 20);
    decoder.Append(std::string_view(bytes).substr(0, cut));
    std::vector<Frame> got = Drain(&decoder);
    decoder.Append(std::string_view(bytes).substr(cut));
    for (Frame& frame : Drain(&decoder)) got.push_back(std::move(frame));
    ExpectSameFrames(got, frames);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }

  // One byte per Append.
  FrameDecoder decoder(1u << 20);
  std::vector<Frame> got;
  for (char byte : bytes) {
    decoder.Append(std::string_view(&byte, 1));
    for (Frame& frame : Drain(&decoder)) got.push_back(std::move(frame));
  }
  ExpectSameFrames(got, frames);
}

TEST(FrameDecoderTest, PartialFrameWaitsForTheRest) {
  const std::string frame = wire::EncodeFrame(FrameType::kDocChunk, "xml");
  FrameDecoder decoder(1u << 20);
  for (size_t have = 1; have < frame.size(); ++have) {
    decoder.Append(std::string_view(frame).substr(have - 1, 1));
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->has_value()) << "after " << have << " bytes";
    EXPECT_EQ(decoder.buffered_bytes(), have);
  }
  decoder.Append(std::string_view(frame).substr(frame.size() - 1));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->payload, "xml");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, FramingErrorsFollowTheFramesBeforeThem) {
  struct Case {
    uint32_t declared_length;
    std::string message;
  };
  const Case cases[] = {
      {0, "frame with zero length (no type byte)"},
      {1025, "frame of 1025 bytes exceeds max_frame_bytes = 1024"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    FrameDecoder decoder(1024);
    // A frame exactly at the cap decodes; the bad prefix after it fails.
    std::string bytes = wire::EncodeFrame(FrameType::kStats, "") +
                        wire::EncodeFrame(FrameType::kDocChunk,
                                          std::string(1023, 'x'));
    wire::AppendU32(&bytes, c.declared_length);
    decoder.Append(bytes);
    for (FrameType type : {FrameType::kStats, FrameType::kDocChunk}) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok());
      ASSERT_TRUE(next->has_value());
      EXPECT_EQ((*next)->type, type);
    }
    // The stream cannot be resynchronized: every later call fails too.
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto next = decoder.Next();
      ASSERT_FALSE(next.ok());
      EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(next.status().message(), c.message);
    }
  }
}

}  // namespace
}  // namespace xpstream
