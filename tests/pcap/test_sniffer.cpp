#include "pcap/sniffer.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"
#include "sim/network.hpp"

namespace streamlab {
namespace {

PathConfig tiny_path() {
  PathConfig cfg;
  cfg.hop_count = 3;
  cfg.jitter_stddev = Duration::zero();
  return cfg;
}

TEST(Sniffer, CapturesInboundTraffic) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  net.client().udp_bind(7000, [](auto, auto, auto) {});

  Sniffer sniffer(net.client());
  server.udp_send(5000, Endpoint{net.client().address(), 7000},
                  std::vector<std::uint8_t>(100, 1));
  net.loop().run();

  ASSERT_EQ(sniffer.packets_captured(), 1u);
  const auto& rec = sniffer.trace()[0];
  const auto parsed = parse_frame(rec.data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, server.address());
  EXPECT_EQ(parsed->ip.dst, net.client().address());
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->dst_port, 7000);
}

TEST(Sniffer, CapturesFragmentsIndividually) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  net.client().udp_bind(7000, [](auto, auto, auto) {});

  Sniffer sniffer(net.client());
  // 3008-byte datagram -> 3 wire packets.
  server.udp_send(5000, Endpoint{net.client().address(), 7000},
                  std::vector<std::uint8_t>(3000, 1));
  net.loop().run();
  EXPECT_EQ(sniffer.packets_captured(), 3u);

  int fragments = 0;
  for (const CaptureRecord& rec : sniffer.trace()) {
    const auto parsed = parse_frame(rec.data);
    ASSERT_TRUE(parsed.has_value());
    fragments += parsed->ip.is_trailing_fragment();
  }
  EXPECT_EQ(fragments, 2);
}

TEST(Sniffer, DirectionFiltering) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  server.udp_bind(5000, [&](auto data, Endpoint from, auto) {
    server.udp_send(5000, from, data);  // echo
  });
  net.client().udp_bind(7000, [](auto, auto, auto) {});

  Sniffer::Options outbound_only;
  outbound_only.capture_inbound = false;
  Sniffer sniffer(net.client(), outbound_only);

  net.client().udp_send(7000, Endpoint{server.address(), 5000},
                        std::vector<std::uint8_t>{1});
  net.loop().run();

  ASSERT_EQ(sniffer.packets_captured(), 1u);
  const auto parsed = parse_frame(sniffer.trace()[0].data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, net.client().address());
}

TEST(Sniffer, SnaplenApplied) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  net.client().udp_bind(7000, [](auto, auto, auto) {});

  Sniffer::Options opts;
  opts.snaplen = 96;
  Sniffer sniffer(net.client(), opts);
  server.udp_send(5000, Endpoint{net.client().address(), 7000},
                  std::vector<std::uint8_t>(1000, 1));
  net.loop().run();

  ASSERT_EQ(sniffer.packets_captured(), 1u);
  EXPECT_EQ(sniffer.trace()[0].data.size(), 96u);
  EXPECT_EQ(sniffer.trace()[0].original_length, 14u + 20 + 8 + 1000);
}

TEST(Sniffer, DetachesOnDestruction) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  net.client().udp_bind(7000, [](auto, auto, auto) {});
  {
    Sniffer sniffer(net.client());
  }
  server.udp_send(5000, Endpoint{net.client().address(), 7000},
                  std::vector<std::uint8_t>{1});
  net.loop().run();  // no crash: tap removed
  SUCCEED();
}

TEST(Sniffer, TimestampsAreArrivalTimes) {
  Network net(tiny_path());
  Host& server = net.add_server("srv");
  net.client().udp_bind(7000, [](auto, auto, auto) {});

  Sniffer sniffer(net.client());
  server.udp_send(5000, Endpoint{net.client().address(), 7000},
                  std::vector<std::uint8_t>(100, 1));
  net.loop().run();
  ASSERT_EQ(sniffer.packets_captured(), 1u);
  EXPECT_GT(sniffer.trace()[0].timestamp, SimTime::zero());
}

}  // namespace
}  // namespace streamlab
