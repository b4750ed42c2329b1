#include "analysis/flow.hpp"

#include <gtest/gtest.h>

#include "net/fragmentation.hpp"
#include "pcap/capture.hpp"

namespace streamlab {
namespace {

const Endpoint kServerA{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kServerB{Ipv4Address(192, 168, 100, 11), 7070};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

/// Appends n unfragmented packets from a server, `gap` apart, to `trace`.
void add_flow(CaptureTrace& trace, const Endpoint& server, int n, double gap_s,
              std::size_t payload = 500, std::uint16_t dst_port = 7000) {
  for (int i = 0; i < n; ++i) {
    const auto pkt = make_udp_packet(server, Endpoint{kClient.ip, dst_port},
                                     std::vector<std::uint8_t>(payload, 1),
                                     static_cast<std::uint16_t>(i));
    trace.add_packet(SimTime::from_seconds(1.0 + i * gap_s), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), pkt);
  }
}

/// A capture of n unfragmented packets from a server, `gap` apart.
CaptureTrace simple_trace(const Endpoint& server, int n, double gap_s,
                          std::size_t payload = 500) {
  CaptureTrace trace;
  add_flow(trace, server, n, gap_s, payload);
  return trace;
}

TEST(FlowTrace, ExtractsBySourceAndPort) {
  CaptureTrace trace = simple_trace(kServerA, 5, 0.1);
  // Mix in traffic from another server and another port.
  add_flow(trace, kServerB, 3, 0.1);
  add_flow(trace, kServerA, 2, 0.1, 500, 9999);

  const auto packets = dissect_trace(trace);
  const auto flow = FlowTrace::extract(packets, kServerA.ip, 7000);
  EXPECT_EQ(flow.size(), 5u);
  const auto flow_b = FlowTrace::extract(packets, kServerB.ip, 7000);
  EXPECT_EQ(flow_b.size(), 3u);
  // Without a port filter, both kServerA flows merge.
  const auto flow_all = FlowTrace::extract(packets, kServerA.ip);
  EXPECT_EQ(flow_all.size(), 7u);
}

TEST(FlowTrace, FragmentsBelongToFlow) {
  CaptureTrace trace;
  const auto big = make_udp_packet(kServerA, kClient, std::vector<std::uint8_t>(3000, 1), 7);
  double t = 1.0;
  for (const auto& frag : fragment_packet(big, kDefaultMtu)) {
    trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), frag);
    t += 0.001;
  }
  const auto flow = FlowTrace::extract(dissect_trace(trace), kServerA.ip, kClient.port);
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.fragment_count(), 2u);
  EXPECT_NEAR(flow.fragment_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_TRUE(flow.packets()[0].first_of_group);
  EXPECT_FALSE(flow.packets()[1].first_of_group);
  EXPECT_FALSE(flow.packets()[2].first_of_group);
}

TEST(FlowTrace, PacketSizesWireLengths) {
  const auto flow = FlowTrace::extract(
      dissect_trace(simple_trace(kServerA, 4, 0.1, 500)), kServerA.ip, 7000);
  const auto sizes = flow.packet_sizes();
  ASSERT_EQ(sizes.size(), 4u);
  for (const double s : sizes) EXPECT_DOUBLE_EQ(s, 14 + 20 + 8 + 500);
}

TEST(FlowTrace, PacketSizesCanExcludeFragments) {
  CaptureTrace trace;
  const auto big = make_udp_packet(kServerA, kClient, std::vector<std::uint8_t>(3000, 1), 7);
  double t = 1.0;
  for (const auto& frag : fragment_packet(big, kDefaultMtu)) {
    trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), frag);
    t += 0.001;
  }
  const auto flow = FlowTrace::extract(dissect_trace(trace), kServerA.ip, kClient.port);
  EXPECT_EQ(flow.packet_sizes(true).size(), 3u);
  EXPECT_EQ(flow.packet_sizes(false).size(), 1u);
}

TEST(FlowTrace, InterarrivalsUniformSpacing) {
  const auto flow = FlowTrace::extract(
      dissect_trace(simple_trace(kServerA, 10, 0.1)), kServerA.ip, 7000);
  const auto gaps = flow.interarrivals();
  ASSERT_EQ(gaps.size(), 9u);
  for (const double g : gaps) EXPECT_NEAR(g, 0.1, 1e-9);
}

TEST(FlowTrace, GroupsOnlyInterarrivalsSkipFragments) {
  // Two fragmented datagrams 100 ms apart: raw interarrivals include the
  // ~1 ms fragment spacing; groups_only sees exactly one 100 ms gap.
  CaptureTrace trace;
  double base = 1.0;
  for (int d = 0; d < 2; ++d) {
    const auto big = make_udp_packet(kServerA, kClient, std::vector<std::uint8_t>(3000, 1),
                                     static_cast<std::uint16_t>(d));
    double t = base;
    for (const auto& frag : fragment_packet(big, kDefaultMtu)) {
      trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                       MacAddress::for_nic(2), frag);
      t += 0.001;
    }
    base += 0.1;
  }
  const auto flow = FlowTrace::extract(dissect_trace(trace), kServerA.ip, kClient.port);
  EXPECT_EQ(flow.interarrivals(false).size(), 5u);
  const auto groups = flow.interarrivals(true);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_NEAR(groups[0], 0.1, 1e-9);
}

TEST(FlowTrace, ArrivalSequenceIndices) {
  const auto flow = FlowTrace::extract(
      dissect_trace(simple_trace(kServerA, 5, 0.05)), kServerA.ip, 7000);
  const auto seq = flow.arrival_sequence();
  ASSERT_EQ(seq.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seq[i].second, i);
    EXPECT_NEAR(seq[i].first, 1.0 + 0.05 * static_cast<double>(i), 1e-9);
  }
}

TEST(FlowTrace, BandwidthTimelineWindows) {
  // 10 packets of 542 wire bytes at 10 per second for 1 s, then silence.
  const auto flow = FlowTrace::extract(
      dissect_trace(simple_trace(kServerA, 10, 0.1, 500)), kServerA.ip, 7000);
  const auto timeline = flow.bandwidth_timeline(Duration::millis(500));
  ASSERT_GE(timeline.size(), 2u);
  // First window: 5 packets x 542 bytes in 0.5 s = 43.36 Kbps.
  EXPECT_NEAR(timeline[0].second, 5 * 542 * 8 / 0.5 / 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(timeline[0].first, 0.0);
  EXPECT_DOUBLE_EQ(timeline[1].first, 0.5);
}

TEST(FlowTrace, RateAndTotals) {
  const auto flow = FlowTrace::extract(
      dissect_trace(simple_trace(kServerA, 11, 0.1, 500)), kServerA.ip, 7000);
  EXPECT_EQ(flow.total_bytes(), 11u * 542);
  EXPECT_NEAR(flow.duration().to_seconds(), 1.0, 1e-9);
  // 10 gaps x 0.1 s carrying 11 packets: mean rate over duration.
  EXPECT_NEAR(flow.mean_rate_kbps(), 11 * 542 * 8 / 1.0 / 1000.0, 1e-6);
}

TEST(FlowTrace, EmptyFlowSafeDefaults) {
  const auto flow = FlowTrace::extract({}, kServerA.ip, 7000);
  EXPECT_TRUE(flow.empty());
  EXPECT_DOUBLE_EQ(flow.fragment_fraction(), 0.0);
  EXPECT_TRUE(flow.interarrivals().empty());
  EXPECT_TRUE(flow.bandwidth_timeline(Duration::seconds(1)).empty());
  EXPECT_DOUBLE_EQ(flow.mean_rate_kbps(), 0.0);
  EXPECT_EQ(flow.duration(), Duration::zero());
}

}  // namespace
}  // namespace streamlab
