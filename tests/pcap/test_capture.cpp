#include "pcap/capture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fragmentation.hpp"

namespace streamlab {
namespace {

Ipv4Packet sample_packet(std::size_t payload = 100) {
  return make_udp_packet(Endpoint{Ipv4Address(1, 1, 1, 1), 10},
                         Endpoint{Ipv4Address(2, 2, 2, 2), 20},
                         std::vector<std::uint8_t>(payload, 0x42), 7);
}

TEST(CaptureTrace, EmptyDefaults) {
  CaptureTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_bytes(), 0u);
  EXPECT_EQ(trace.duration(), Duration::zero());
  EXPECT_EQ(trace.snaplen(), 65535u);
}

TEST(CaptureTrace, AddPacketFramesAndTimestamps) {
  CaptureTrace trace;
  const auto pkt = sample_packet();
  trace.add_packet(SimTime::from_seconds(1.5), MacAddress::for_nic(1),
                   MacAddress::for_nic(2), pkt);
  ASSERT_EQ(trace.size(), 1u);
  const CaptureRecord rec = trace[0];
  EXPECT_EQ(rec.timestamp, SimTime::from_seconds(1.5));
  EXPECT_EQ(rec.original_length, kEthernetHeaderSize + pkt.total_length());
  EXPECT_EQ(rec.data.size(), rec.original_length);
}

TEST(CaptureTrace, SnaplenTruncatesStoredBytesNotLength) {
  CaptureTrace trace(64);
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2),
                   sample_packet(1000));
  const CaptureRecord rec = trace[0];
  EXPECT_EQ(rec.data.size(), 64u);
  EXPECT_EQ(rec.original_length, kEthernetHeaderSize + kIpv4HeaderSize + kUdpHeaderSize + 1000);
}

TEST(CaptureTrace, TotalBytesUsesOriginalLength) {
  CaptureTrace trace(64);
  for (int i = 0; i < 3; ++i)
    trace.add_packet(SimTime::from_seconds(i), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), sample_packet(1000));
  EXPECT_EQ(trace.total_bytes(), 3u * (kEthernetHeaderSize + 28 + 1000));
  EXPECT_EQ(trace.duration(), Duration::seconds(2));
}

// A capture record is the Ethernet frame of the packet cut to the snaplen,
// byte for byte, with the untruncated wire length.
void expect_record_is_truncated_frame(const Ipv4Packet& pkt) {
  const MacAddress src = MacAddress::for_nic(1);
  const MacAddress dst = MacAddress::for_nic(2);
  const Frame frame = frame_ipv4(src, dst, pkt);
  for (const std::uint32_t snaplen : {96u, 65535u}) {
    CaptureTrace trace(snaplen);
    trace.add_packet(SimTime::from_seconds(2), src, dst, pkt);
    const CaptureRecord rec = trace[0];
    const std::size_t keep = std::min<std::size_t>(frame.size(), snaplen);
    EXPECT_EQ(rec.original_length, frame.size()) << snaplen;
    EXPECT_TRUE(std::ranges::equal(rec.data, frame.bytes().first(keep))) << snaplen;
  }
}

TEST(CaptureTrace, RecordsEqualTruncatedFramesOfFragments) {
  std::vector<std::uint8_t> payload(3125);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const Ipv4Packet datagram = make_udp_packet(Endpoint{Ipv4Address(1, 1, 1, 1), 10},
                                              Endpoint{Ipv4Address(2, 2, 2, 2), 20},
                                              payload, 9);
  const auto fragments = fragment_packet(datagram, kDefaultMtu);
  ASSERT_EQ(fragments.size(), 3u);
  expect_record_is_truncated_frame(fragments.front());  // first fragment, UDP header
  expect_record_is_truncated_frame(fragments.back());   // short trailing fragment
  expect_record_is_truncated_frame(sample_packet(10));  // shorter than the snaplen
}

TEST(CaptureTrace, RecordsEqualTruncatedFramesOfIcmp) {
  IcmpHeader icmp;
  icmp.identifier = 3;
  icmp.sequence = 4;
  const std::vector<std::uint8_t> payload(120, 0xA5);
  expect_record_is_truncated_frame(
      make_icmp_packet(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), icmp, payload, 11));
}

}  // namespace
}  // namespace streamlab
