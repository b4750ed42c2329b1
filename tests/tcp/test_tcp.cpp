#include "tcp/sender.hpp"

#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "tcp/receiver.hpp"

namespace streamlab {
namespace {

PathConfig tcp_path(double bottleneck_mbps = 10.0, double loss = 0.0, int hops = 5) {
  PathConfig cfg;
  cfg.hop_count = hops;
  cfg.one_way_propagation = Duration::millis(15);
  cfg.bottleneck_bandwidth = BitRate::mbps(bottleneck_mbps);
  cfg.jitter_stddev = Duration::zero();
  cfg.loss_probability = loss;
  cfg.queue_limit_bytes = 64 * 1024;
  return cfg;
}

struct TcpFixture {
  Network net;
  Host& server;
  TcpDemux client_demux;
  TcpDemux server_demux;
  TcpBulkReceiver receiver;
  TcpBulkSender sender;

  TcpFixture(std::uint64_t bytes, PathConfig path = tcp_path(),
             TcpSenderConfig config = {})
      : net(path),
        server(net.add_server("sink")),
        client_demux(net.client()),
        server_demux(server),
        receiver(server_demux, 5001),
        sender(client_demux, 40001, Endpoint{server.address(), 5001}, bytes, config) {}

  void run(Duration limit = Duration::seconds(600)) {
    sender.start();
    const SimTime deadline = net.loop().now() + limit;
    while (!sender.done() && net.loop().now() < deadline) {
      if (net.loop().run_until(net.loop().now() + Duration::millis(100)) == 0 &&
          net.loop().empty())
        break;
    }
  }
};

TEST(TcpDemux, RoutesByPortAndCountsUnclaimed) {
  Network net(tcp_path());
  Host& server = net.add_server("srv");
  TcpDemux demux(server);
  int hits = 0;
  demux.bind(80, [&](auto&, auto, auto, auto) { ++hits; });

  TcpHeader to_open;
  to_open.src_port = 1234;
  to_open.dst_port = 80;
  to_open.flag_syn = true;
  net.client().tcp_send(to_open, server.address(), {});
  TcpHeader to_closed = to_open;
  to_closed.dst_port = 81;
  net.client().tcp_send(to_closed, server.address(), {});
  net.loop().run();

  EXPECT_EQ(hits, 1);
  EXPECT_EQ(demux.segments_demuxed(), 1u);
  EXPECT_EQ(demux.segments_unclaimed(), 1u);
}

TEST(Tcp, HandshakeEstablishes) {
  TcpFixture f(0);
  f.run();
  EXPECT_TRUE(f.sender.connected());
  EXPECT_TRUE(f.receiver.connected());
  EXPECT_TRUE(f.sender.done());  // zero-length transfer completes immediately
}

TEST(Tcp, TransfersAllBytesOnCleanPath) {
  const std::uint64_t bytes = 500'000;
  TcpFixture f(bytes);
  f.run();
  EXPECT_TRUE(f.sender.done());
  EXPECT_TRUE(f.receiver.finished());
  EXPECT_EQ(f.receiver.bytes_received(), bytes);
  EXPECT_EQ(f.sender.stats().bytes_acked, bytes);
  EXPECT_EQ(f.sender.stats().retransmissions, 0u);
  EXPECT_EQ(f.sender.stats().timeouts, 0u);
}

TEST(Tcp, SlowStartGrowsCwndExponentially) {
  TcpFixture f(2'000'000);
  f.run();
  ASSERT_TRUE(f.sender.done());
  const auto& trace = f.sender.cwnd_trace();
  ASSERT_GT(trace.size(), 10u);
  // cwnd grows well beyond the initial 2 segments on a clean path.
  double max_cwnd = 0;
  for (const auto& [t, cwnd] : trace) max_cwnd = std::max(max_cwnd, cwnd);
  EXPECT_GT(max_cwnd, 20.0);
}

TEST(Tcp, RttEstimateReflectsPath) {
  TcpFixture f(300'000);
  f.run();
  ASSERT_TRUE(f.sender.smoothed_rtt().has_value());
  // 15 ms one-way x 2 plus serialization/queueing: 30-80 ms.
  const double rtt_ms = f.sender.smoothed_rtt()->to_millis();
  EXPECT_GT(rtt_ms, 25.0);
  EXPECT_LT(rtt_ms, 100.0);
}

TEST(Tcp, RecoversFromRandomLoss) {
  const std::uint64_t bytes = 400'000;
  PathConfig lossy = tcp_path(10.0, /*loss=*/0.02);
  lossy.seed = 11;
  TcpFixture f(bytes, lossy);
  f.run();
  EXPECT_TRUE(f.sender.done());
  EXPECT_EQ(f.receiver.bytes_received(), bytes);  // reliable despite loss
  EXPECT_GT(f.sender.stats().retransmissions, 0u);
}

TEST(Tcp, FastRetransmitPreferredOverTimeout) {
  PathConfig lossy = tcp_path(10.0, 0.01);
  lossy.seed = 23;
  TcpFixture f(1'000'000, lossy);
  f.run();
  ASSERT_TRUE(f.sender.done());
  // With a filled pipe, most single losses repair via dupacks, not RTO.
  EXPECT_GT(f.sender.stats().fast_retransmits, 0u);
  EXPECT_GE(f.sender.stats().fast_retransmits, f.sender.stats().timeouts);
}

TEST(Tcp, ThroughputApproachesBottleneck) {
  // 2 Mbps bottleneck, large transfer: TCP should fill most of the link.
  PathConfig narrow = tcp_path(2.0);
  TcpFixture f(3'000'000, narrow);
  const SimTime start = f.net.loop().now();
  f.run(Duration::seconds(120));
  ASSERT_TRUE(f.sender.done());
  // Goodput over the transfer, timed to the 100 ms steps the fixture runs in.
  const double kbps = 3'000'000 * 8.0 / (f.net.loop().now() - start).to_seconds() / 1000.0;
  EXPECT_GT(kbps, 1200.0);  // > 60% utilisation
  EXPECT_LT(kbps, 2100.0);  // and no more than the link
}

TEST(Tcp, CongestionCollapsesCwndOnOverbuffering) {
  // Tiny queue forces drops once cwnd exceeds the BDP: cwnd must saw-tooth.
  PathConfig tight = tcp_path(2.0);
  tight.queue_limit_bytes = 8 * 1024;
  TcpFixture f(2'000'000, tight);
  f.run(Duration::seconds(180));
  ASSERT_TRUE(f.sender.done());
  EXPECT_GT(f.sender.stats().fast_retransmits + f.sender.stats().timeouts, 0u);
  // The trace contains at least one decrease.
  const auto& trace = f.sender.cwnd_trace();
  bool decreased = false;
  for (std::size_t i = 1; i < trace.size() && !decreased; ++i)
    decreased = trace[i].second < trace[i - 1].second - 1.0;
  EXPECT_TRUE(decreased);
}

TEST(Tcp, DeterministicGivenSeed) {
  PathConfig path = tcp_path(5.0, 0.01);
  path.seed = 9;
  TcpFixture a(200'000, path);
  a.run();
  TcpFixture b(200'000, path);
  b.run();
  EXPECT_EQ(a.sender.stats().segments_sent, b.sender.stats().segments_sent);
  EXPECT_EQ(a.sender.stats().retransmissions, b.sender.stats().retransmissions);
}

TEST(Tcp, ReceiverCountsDuplicates) {
  PathConfig lossy = tcp_path(10.0, 0.03);
  lossy.seed = 31;
  TcpFixture f(500'000, lossy);
  f.run();
  ASSERT_TRUE(f.sender.done());
  // Go-back-N after timeouts resends already-received data occasionally.
  EXPECT_EQ(f.receiver.bytes_received(), 500'000u);
}

}  // namespace
}  // namespace streamlab
