#include "players/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

namespace streamlab {
namespace {

TEST(ControlMessage, RoundTrip) {
  ControlMessage msg{ControlType::kPlayRequest, "set1/M-h"};
  const auto bytes = msg.encode();
  const auto decoded = ControlMessage::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, ControlType::kPlayRequest);
  EXPECT_EQ(decoded->clip_id, "set1/M-h");
}

TEST(ControlMessage, ResumeOffsetRoundTrips) {
  // A failover PLAY carries the media position to resume from; the full
  // 64-bit range must survive the wire format.
  ControlMessage msg{ControlType::kPlayRequest, "set1/R-l"};
  msg.offset = 0x1234'5678'9ABC'DEF0ULL;
  const auto decoded = ControlMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->offset, 0x1234'5678'9ABC'DEF0ULL);
  // And the default stays "play from the top".
  const ControlMessage plain{ControlType::kPlayRequest, "set1/R-l"};
  const auto plain_decoded = ControlMessage::decode(plain.encode());
  ASSERT_TRUE(plain_decoded.has_value());
  EXPECT_EQ(plain_decoded->offset, 0u);
}

TEST(ControlMessage, EmptyClipId) {
  ControlMessage msg{ControlType::kTeardown, ""};
  const auto decoded = ControlMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, ControlType::kTeardown);
  EXPECT_TRUE(decoded->clip_id.empty());
}

TEST(ControlMessage, RejectsWrongMagic) {
  auto bytes = ControlMessage{ControlType::kPlayOk, "x"}.encode();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(ControlMessage::decode(bytes).has_value());
}

TEST(ControlMessage, RejectsTruncated) {
  const auto bytes = ControlMessage{ControlType::kPlayOk, "set1/R-l"}.encode();
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 3);
  EXPECT_FALSE(ControlMessage::decode(cut).has_value());
}

TEST(DataHeader, RoundTripWithPayloadLength) {
  DataHeader h;
  h.seq = 123456;
  h.media_offset = 0x123456789AULL;  // needs > 32 bits
  h.flags = kFlagBufferingPhase;

  const auto packet = DataHeader::make_packet(h, 500);
  EXPECT_EQ(packet.size(), kDataHeaderSize + 500);

  std::size_t media_len = 0;
  const auto decoded = DataHeader::decode(packet, media_len);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 123456u);
  EXPECT_EQ(decoded->media_offset, 0x123456789AULL);
  EXPECT_EQ(decoded->flags, kFlagBufferingPhase);
  EXPECT_EQ(media_len, 500u);
}

TEST(DataHeader, ZeroLengthPayload) {
  DataHeader h;
  h.flags = kFlagEndOfStream;
  const auto packet = DataHeader::make_packet(h, 0);
  std::size_t media_len = 99;
  const auto decoded = DataHeader::decode(packet, media_len);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(media_len, 0u);
  EXPECT_TRUE(decoded->flags & kFlagEndOfStream);
}

TEST(DataHeader, ControlAndDataMagicsDistinct) {
  // A data packet must not decode as control, and vice versa.
  const auto data = DataHeader::make_packet(DataHeader{}, 10);
  EXPECT_FALSE(ControlMessage::decode(data).has_value());
  const auto ctrl = ControlMessage{ControlType::kPlayRequest, "id"}.encode();
  std::size_t media_len = 0;
  EXPECT_FALSE(DataHeader::decode(ctrl, media_len).has_value());
}

TEST(DataHeader, PayloadPatternDeterministicByOffset) {
  DataHeader h;
  h.media_offset = 256;
  const auto a = DataHeader::make_packet(h, 16);
  const auto b = DataHeader::make_packet(h, 16);
  EXPECT_EQ(a, b);
  // Pattern continues across offsets: byte at offset k is (offset+k) & 0xFF.
  EXPECT_EQ(a[kDataHeaderSize], 0);  // (256 + 0) & 0xFF
  EXPECT_EQ(a[kDataHeaderSize + 5], 5);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

// media_offset 250 puts the 256-byte pattern's wrap six bytes into the
// payload, and 3125 bytes cross it twelve more times.
TEST(DataHeader, WireBytesAcrossPatternPhaseWrap) {
  DataHeader h;
  h.seq = 0x01020304;
  h.media_offset = 250;
  h.flags = kFlagBufferingPhase;
  const auto bytes = DataHeader::make_packet(h, 3125);
  ASSERT_EQ(bytes.size(), kDataHeaderSize + 3125);
  const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + kDataHeaderSize);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{0x44, 0x54, 0x01, 0x00, 0x01, 0x02, 0x03, 0x04,
                                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFA}));
  for (std::size_t i = 0; i < 3125; ++i)
    ASSERT_EQ(bytes[kDataHeaderSize + i], static_cast<std::uint8_t>((250 + i) & 0xFF)) << i;
  EXPECT_EQ(fnv1a(bytes), 0x97a0fb00a12c2d6cull);
}

TEST(DataHeader, MultipathWireBytesAcrossPatternPhaseWrap) {
  DataHeader h;
  h.seq = 0x01020304;
  h.media_offset = 250;
  h.flags = kFlagMultipath;
  h.subflow_id = 1;
  h.subflow_seq = 0xDEADBEEF;
  const auto bytes = DataHeader::make_packet(h, 3125);
  const std::size_t header = kDataHeaderSize + kMultipathExtensionSize;
  ASSERT_EQ(bytes.size(), header + 3125);
  const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + header);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{0x44, 0x54, 0x08, 0x01, 0x01, 0x02, 0x03,
                                             0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                             0x00, 0xFA, 0xDE, 0xAD, 0xBE, 0xEF}));
  for (std::size_t i = 0; i < 3125; ++i)
    ASSERT_EQ(bytes[header + i], static_cast<std::uint8_t>((250 + i) & 0xFF)) << i;
  EXPECT_EQ(fnv1a(bytes), 0x1ecbb0e7282e19b8ull);
}

TEST(ParityHeader, PadBytesAreFillerAfterTheHeader) {
  ParityHeader h;
  h.k = 8;
  h.stride = 2;
  h.block_base = 16;
  h.xor_media_offset = 0x123456789Aull;
  h.xor_media_len = 1234;
  h.xor_flags = 3;
  const auto bytes = ParityHeader::make_packet(h, 701);
  ASSERT_EQ(bytes.size(), kParityHeaderSize + 701);
  const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + kParityHeaderSize);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{0x50, 0x52, 0x08, 0x02, 0x00, 0x00, 0x00, 0x10,
                                             0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9A,
                                             0x00, 0x00, 0x04, 0xD2, 0x03, 0x00}));
  for (std::size_t i = kParityHeaderSize; i < bytes.size(); ++i) ASSERT_EQ(bytes[i], 0xFE) << i;
  EXPECT_EQ(fnv1a(bytes), 0x4c10c37a7c87b01cull);
  EXPECT_EQ(ParityHeader::make_packet(h, 0).size(), kParityHeaderSize);
}

TEST(Ports, WellKnownValues) {
  EXPECT_EQ(kRealServerPort, 7070);
  EXPECT_EQ(kMediaServerPort, 1755);
  EXPECT_NE(kRealClientPort, kMediaClientPort);  // concurrent sessions need both
}

}  // namespace
}  // namespace streamlab
