#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(MakeUdpPacket, LengthsAndFields) {
  const auto payload = pattern(100);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 42);
  EXPECT_EQ(pkt.header.protocol, kIpProtoUdp);
  EXPECT_EQ(pkt.header.identification, 42);
  EXPECT_EQ(pkt.header.src, kServer.ip);
  EXPECT_EQ(pkt.header.dst, kClient.ip);
  EXPECT_EQ(pkt.payload.size(), kUdpHeaderSize + 100);
  EXPECT_EQ(pkt.header.total_length, kIpv4HeaderSize + kUdpHeaderSize + 100);
  EXPECT_EQ(pkt.total_length(), pkt.header.total_length);
}

TEST(FrameAndParse, UdpRoundTrip) {
  const auto payload = pattern(64);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 7);
  const MacAddress src_mac = MacAddress::for_nic(1);
  const MacAddress dst_mac = MacAddress::for_nic(2);
  const Frame frame = frame_ipv4(src_mac, dst_mac, pkt);
  EXPECT_EQ(frame.size(), kEthernetHeaderSize + pkt.total_length());

  const auto parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->eth.src, src_mac);
  EXPECT_EQ(parsed->eth.dst, dst_mac);
  EXPECT_EQ(parsed->ip.src, kServer.ip);
  EXPECT_EQ(parsed->ip.dst, kClient.ip);
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->src_port, 1755);
  EXPECT_EQ(parsed->udp->dst_port, 7000);
  EXPECT_EQ(parsed->payload, payload);
  EXPECT_FALSE(parsed->tcp.has_value());
  EXPECT_FALSE(parsed->icmp.has_value());
}

TEST(FrameAndParse, TcpRoundTrip) {
  TcpHeader tcp;
  tcp.seq = 1000;
  tcp.flag_psh = true;
  tcp.flag_ack = true;
  const auto payload = pattern(32);
  const Ipv4Packet pkt = make_tcp_packet(kServer, kClient, tcp, payload, 9);
  EXPECT_TRUE(pkt.header.dont_fragment);  // TCP sets DF

  const auto parsed = parse_frame(
      frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt).bytes());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->tcp.has_value());
  EXPECT_EQ(parsed->tcp->seq, 1000u);
  EXPECT_TRUE(parsed->tcp->flag_psh);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(FrameAndParse, IcmpRoundTrip) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kTimeExceeded;
  const auto quoted = pattern(28);
  const Ipv4Packet pkt =
      make_icmp_packet(Ipv4Address(10, 1, 3, 1), kClient.ip, icmp, quoted, 11);

  const auto parsed = parse_frame(
      frame_ipv4(MacAddress::for_nic(3), MacAddress::for_nic(2), pkt).bytes());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->icmp.has_value());
  EXPECT_EQ(parsed->icmp->type, IcmpType::kTimeExceeded);
  EXPECT_EQ(parsed->payload, quoted);
}

TEST(ParseFrame, TrailingFragmentHasNoTransportHeader) {
  Ipv4Packet frag;
  frag.header.protocol = kIpProtoUdp;
  frag.header.fragment_offset_units = 185;
  frag.header.src = kServer.ip;
  frag.header.dst = kClient.ip;
  frag.payload = pattern(200);
  frag.header.total_length = static_cast<std::uint16_t>(frag.total_length());

  const auto parsed = parse_frame(
      frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), frag).bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->udp.has_value());
  EXPECT_TRUE(parsed->ip.is_trailing_fragment());
  EXPECT_EQ(parsed->payload.size(), 200u);
}

TEST(ParseFrame, RejectsNonIpv4AndTruncation) {
  // Wrong ethertype.
  std::uint8_t arp[kEthernetHeaderSize];
  SpanWriter w(arp);
  EthernetHeader eth;
  eth.ethertype = 0x0806;  // ARP
  eth.write(w);
  EXPECT_FALSE(parse_frame(arp).has_value());

  // Truncated mid-IP-header.
  const auto payload = pattern(10);
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2),
                                 make_udp_packet(kServer, kClient, payload, 1));
  EXPECT_FALSE(parse_frame(frame.bytes().subspan(0, 20)).has_value());
}

TEST(ParseFrame, RejectsLyingTotalLength) {
  const auto payload = pattern(10);
  Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 1);
  pkt.header.total_length = 1000;  // bigger than the actual frame
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  EXPECT_FALSE(parse_frame(frame.bytes()).has_value());
}

}  // namespace
}  // namespace streamlab
