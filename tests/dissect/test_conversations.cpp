#include "dissect/conversations.hpp"

#include <gtest/gtest.h>

#include "net/fragmentation.hpp"
#include "pcap/capture.hpp"

namespace streamlab {
namespace {

const Endpoint kServerA{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kServerB{Ipv4Address(192, 168, 100, 11), 7070};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

void add_udp(CaptureTrace& trace, const Endpoint& src, const Endpoint& dst,
             std::size_t payload, double t, std::uint16_t id = 1) {
  trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                   MacAddress::for_nic(2),
                   make_udp_packet(src, dst, std::vector<std::uint8_t>(payload, 1), id));
}

TEST(Conversations, GroupsByFiveTuple) {
  CaptureTrace trace;
  add_udp(trace, kServerA, kClient, 100, 1.0);
  add_udp(trace, kServerA, kClient, 100, 1.1);
  add_udp(trace, kServerB, kClient, 200, 1.2);

  ConversationTable table;
  table.add_all(dissect_trace(trace));
  ASSERT_EQ(table.size(), 2u);

  const auto convs = table.by_bytes();
  // Conversation A has 2 x 142-byte frames; B one 242-byte frame.
  EXPECT_EQ(convs[0].total_packets(), 2u);
  EXPECT_EQ(convs[0].total_bytes(), 284u);
  EXPECT_EQ(convs[1].total_packets(), 1u);
}

// Equal byte counts come out in key order, whatever order they were added
// in. Twenty of them take std::sort past its insertion-sort cutoff, where
// equal elements need not keep their order.
TEST(Conversations, EqualBytesSortByKey) {
  CaptureTrace trace;
  for (std::uint16_t port = 7020; port > 7000; --port)
    add_udp(trace, kServerA, {kClient.ip, port}, 100, 1.0);

  ConversationTable table;
  table.add_all(dissect_trace(trace));
  const auto convs = table.by_bytes();
  ASSERT_EQ(convs.size(), 20u);
  for (std::size_t i = 1; i < convs.size(); ++i) {
    EXPECT_EQ(convs[i].total_bytes(), convs[0].total_bytes());
    EXPECT_LT(convs[i - 1].key, convs[i].key) << i;
  }
}

TEST(Conversations, MergesBothDirections) {
  CaptureTrace trace;
  add_udp(trace, kServerA, kClient, 100, 1.0);
  add_udp(trace, kClient, kServerA, 50, 1.1);  // reply

  ConversationTable table;
  table.add_all(dissect_trace(trace));
  ASSERT_EQ(table.size(), 1u);
  const auto convs = table.by_bytes();
  EXPECT_EQ(convs[0].total_packets(), 2u);
  EXPECT_EQ(convs[0].packets_a_to_b + convs[0].packets_b_to_a, 2u);
  EXPECT_GT(convs[0].packets_a_to_b, 0u);
  EXPECT_GT(convs[0].packets_b_to_a, 0u);
}

TEST(Conversations, FragmentsAttributedToFlow) {
  CaptureTrace trace;
  const auto big = make_udp_packet(kServerA, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  double t = 1.0;
  for (const auto& frag : fragment_packet(big, kDefaultMtu)) {
    trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), frag);
    t += 0.001;
  }
  ConversationTable table;
  table.add_all(dissect_trace(trace));
  ASSERT_EQ(table.size(), 1u);
  const auto convs = table.by_bytes();
  EXPECT_EQ(convs[0].total_packets(), 3u);
  EXPECT_EQ(convs[0].fragments, 2u);
  EXPECT_EQ(table.unattributed_packets(), 0u);
}

TEST(Conversations, OrphanFragmentWithoutLeaderUnattributed) {
  CaptureTrace trace;
  const auto big = make_udp_packet(kServerA, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  const auto frags = fragment_packet(big, kDefaultMtu);
  // Only a trailing fragment, no first packet ever seen.
  trace.add_packet(SimTime::from_seconds(1.0), MacAddress::for_nic(1),
                   MacAddress::for_nic(2), frags[1]);
  ConversationTable table;
  table.add_all(dissect_trace(trace));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.unattributed_packets(), 1u);
}

TEST(Conversations, DurationAndRate) {
  CaptureTrace trace;
  for (int i = 0; i <= 10; ++i) add_udp(trace, kServerA, kClient, 992, 1.0 + i * 0.1);
  ConversationTable table;
  table.add_all(dissect_trace(trace));
  const auto convs = table.by_bytes();
  ASSERT_EQ(convs.size(), 1u);
  EXPECT_NEAR(convs[0].duration().to_seconds(), 1.0, 1e-9);
  // 11 frames x (992+42) bytes over 1 s.
  EXPECT_NEAR(convs[0].mean_rate_kbps(), 11 * 1034 * 8 / 1000.0, 0.1);
}

TEST(Conversations, LabelReadable) {
  CaptureTrace trace;
  add_udp(trace, kServerA, kClient, 10, 1.0);
  ConversationTable table;
  table.add_all(dissect_trace(trace));
  const std::string label = table.by_bytes()[0].label();
  EXPECT_NE(label.find("10.0.0.2:7000"), std::string::npos);
  EXPECT_NE(label.find("192.168.100.10:1755"), std::string::npos);
  EXPECT_NE(label.find("udp"), std::string::npos);
}

TEST(Conversations, MalformedPacketsCounted) {
  ConversationTable table;
  DissectedPacket junk;  // no ip fields
  table.add(junk);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.unattributed_packets(), 1u);
}

}  // namespace
}  // namespace streamlab
