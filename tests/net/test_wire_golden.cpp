// Golden wire bytes for the five packet kinds the simulator emits: a data
// datagram, an FEC parity packet, a control message, a TCP segment and an
// ICMP echo. The constants were recorded from the byte-at-a-time builders
// (header encode over a scratch segment copy, then a second copy into the
// slab) that the in-place builders replaced; any drift in a checksum or a
// payload byte fails here, on the copying path and the in-place one alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "players/protocol.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

std::uint16_t be16(const Buffer& b, std::size_t at) {
  return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}

/// Transport checksum field, IPv4 header checksum and a digest of the whole
/// Ethernet frame.
struct Golden {
  std::uint16_t transport_checksum;
  std::uint16_t ip_checksum;
  std::uint64_t frame_fnv;
};

void expect_golden(const Ipv4Packet& pkt, std::size_t checksum_at, const Golden& want) {
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  EXPECT_EQ(be16(pkt.payload, checksum_at), want.transport_checksum);
  EXPECT_EQ(be16(frame.buffer(), kEthernetHeaderSize + 10), want.ip_checksum);
  EXPECT_EQ(fnv1a(frame.bytes()), want.frame_fnv);
}

TEST(WireGolden, DataDatagram) {
  DataHeader h;
  h.seq = 7;
  h.media_offset = 250;
  const auto bytes = DataHeader::make_packet(h, 3125);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, bytes, 42);
  expect_golden(pkt, 6, {0x2d0d, 0x3fae, 0x5597ae992a19004cull});
  // The server's path: the payload written in place in the datagram block.
  const Ipv4Packet in_place = make_udp_packet(
      kServer, kClient, h.wire_size(3125), [&h](std::span<std::uint8_t> out) { h.write(out); },
      42);
  expect_golden(in_place, 6, {0x2d0d, 0x3fae, 0x5597ae992a19004cull});
}

TEST(WireGolden, ParityPacket) {
  ParityHeader h;
  h.k = 8;
  h.stride = 2;
  h.block_base = 16;
  h.xor_media_offset = 0x123456789Aull;
  h.xor_media_len = 1234;
  h.xor_flags = 3;
  const auto bytes = ParityHeader::make_packet(h, 701);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, bytes, 43);
  expect_golden(pkt, 6, {0xfd75, 0x491f, 0xc822676fc2833ba2ull});
  const Ipv4Packet in_place = make_udp_packet(
      kServer, kClient, ParityHeader::wire_size(701),
      [&h](std::span<std::uint8_t> out) { h.write(out); }, 43);
  expect_golden(in_place, 6, {0xfd75, 0x491f, 0xc822676fc2833ba2ull});
}

TEST(WireGolden, ControlMessage) {
  ControlMessage msg;
  msg.type = ControlType::kPlayRequest;
  msg.clip_id = "set1/M-h";
  msg.offset = 0x0102030405ull;
  const auto bytes = msg.encode();
  const Ipv4Packet pkt = make_udp_packet(kClient, kServer, bytes, 44);
  expect_golden(pkt, 6, {0x1d1c, 0x4bdb, 0xc1b9f6ca411f694aull});
}

TEST(WireGolden, TcpSegment) {
  TcpHeader tcp;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flag_ack = true;
  tcp.flag_psh = true;
  tcp.window = 8192;
  std::vector<std::uint8_t> payload(999);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const Ipv4Packet pkt = make_tcp_packet(kServer, kClient, tcp, payload, 45);
  expect_golden(pkt, 16, {0x18d5, 0x0808, 0xcd337a6f769fc9d8ull});
}

TEST(WireGolden, IcmpEcho) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kEchoRequest;
  icmp.identifier = 0x1234;
  icmp.sequence = 5;
  const std::vector<std::uint8_t> payload(33, 0xA5);
  const Ipv4Packet pkt = make_icmp_packet(kClient.ip, kServer.ip, icmp, payload, 46);
  expect_golden(pkt, 2, {0xe66b, 0x4bde, 0x7319a4388717b021ull});
}

}  // namespace
}  // namespace streamlab
