#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/audit.hpp"

namespace streamlab {
namespace {

const Endpoint kA{Ipv4Address(10, 0, 0, 1), 1};
const Endpoint kB{Ipv4Address(10, 0, 0, 2), 2};

/// Records every delivery with its timestamp.
class SinkNode : public Node {
 public:
  SinkNode(std::string name, EventLoop& loop) : Node(std::move(name)), loop_(loop) {}

  void handle_packet(const Ipv4Packet& packet, int iface) override {
    deliveries.push_back({loop_.now(), packet, iface});
  }

  struct Delivery {
    SimTime when;
    Ipv4Packet packet;
    int iface;
  };
  std::vector<Delivery> deliveries;

 private:
  EventLoop& loop_;
};

Ipv4Packet small_packet(std::uint16_t id, std::size_t payload = 100) {
  std::vector<std::uint8_t> data(payload, 0xAB);
  return make_udp_packet(kA, kB, data, id);
}

struct LinkFixture {
  EventLoop loop;
  SinkNode a{"a", loop};
  SinkNode b{"b", loop};

  std::unique_ptr<Link> make(LinkConfig config, std::uint64_t seed = 1) {
    return std::make_unique<Link>(loop, Rng(seed), config, a, 0, b, 0);
  }
};

TEST(Link, DeliversWithSerializationPlusPropagation) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);
  cfg.propagation = Duration::millis(5);
  auto link = f.make(cfg);

  const Ipv4Packet pkt = small_packet(1);  // 100 + 8 + 20 + 14 = 142 wire bytes
  link->send_from_a(pkt);
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 1u);
  const Duration expected_tx = BitRate::mbps(10).transmission_time(142);
  EXPECT_EQ(f.b.deliveries[0].when, SimTime::zero() + expected_tx + Duration::millis(5));
  EXPECT_EQ(f.b.deliveries[0].packet.header.identification, 1);
  EXPECT_TRUE(f.a.deliveries.empty());
}

TEST(Link, FullDuplexBothDirections) {
  LinkFixture f;
  auto link = f.make(LinkConfig{});
  link->send_from_a(small_packet(1));
  link->send_from_b(small_packet(2));
  f.loop.run();
  ASSERT_EQ(f.b.deliveries.size(), 1u);
  ASSERT_EQ(f.a.deliveries.size(), 1u);
  EXPECT_EQ(f.b.deliveries[0].packet.header.identification, 1);
  EXPECT_EQ(f.a.deliveries[0].packet.header.identification, 2);
}

TEST(Link, SerializationQueuesBackToBackPackets) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::bps(142 * 8);  // exactly 1 packet (142B) per second
  cfg.propagation = Duration::zero();
  auto link = f.make(cfg);

  for (std::uint16_t i = 0; i < 3; ++i) link->send_from_a(small_packet(i));
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 3u);
  // Deliveries spaced by exactly one serialization time.
  EXPECT_EQ(f.b.deliveries[0].when, SimTime::from_seconds(1.0));
  EXPECT_EQ(f.b.deliveries[1].when, SimTime::from_seconds(2.0));
  EXPECT_EQ(f.b.deliveries[2].when, SimTime::from_seconds(3.0));
  // FIFO order preserved.
  for (std::uint16_t i = 0; i < 3; ++i)
    EXPECT_EQ(f.b.deliveries[i].packet.header.identification, i);
}

TEST(Link, DropTailWhenQueueFull) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::kbps(8);  // very slow: queue builds up
  cfg.queue_limit_bytes = 300;       // fits two 142-byte packets
  auto link = f.make(cfg);

  for (std::uint16_t i = 0; i < 5; ++i) link->send_from_a(small_packet(i));
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_queue, 3u);
  f.loop.run();
  EXPECT_EQ(f.b.deliveries.size(), 2u);
  EXPECT_EQ(link->stats_a_to_b().packets_delivered, 2u);
}

TEST(Link, RandomLossDropsApproximatelyAtRate) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(1000);
  cfg.loss_probability = 0.2;
  cfg.queue_limit_bytes = 1 << 30;
  auto link = f.make(cfg, /*seed=*/99);

  const int n = 5000;
  for (int i = 0; i < n; ++i) link->send_from_a(small_packet(static_cast<std::uint16_t>(i)));
  f.loop.run();

  const auto& stats = link->stats_a_to_b();
  EXPECT_EQ(stats.packets_sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(stats.packets_dropped_loss) / n, 0.2, 0.03);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped_loss,
            static_cast<std::uint64_t>(n));
}

TEST(Link, JitterPerturbsButNeverReorders) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);
  cfg.propagation = Duration::millis(10);
  cfg.jitter_stddev = Duration::millis(2);
  auto link = f.make(cfg, 7);

  for (std::uint16_t i = 0; i < 200; ++i) link->send_from_a(small_packet(i));
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 200u);
  // Timestamps are non-decreasing (jitter is non-negative additive noise on
  // a FIFO pipe in this model) and ids in order.
  bool any_late = false;
  for (std::size_t i = 1; i < f.b.deliveries.size(); ++i) {
    EXPECT_EQ(f.b.deliveries[i].packet.header.identification, i);
  }
  // Jitter actually perturbs at least one gap away from the deterministic
  // spacing.
  const Duration tx = cfg.bandwidth.transmission_time(142);
  for (std::size_t i = 1; i < f.b.deliveries.size(); ++i) {
    const Duration gap = f.b.deliveries[i].when - f.b.deliveries[i - 1].when;
    if (gap != tx) any_late = true;
  }
  EXPECT_TRUE(any_late);
}

std::size_t payload_for(std::uint16_t id) { return 20 + id * 7u % 1400; }

/// True when `delivered` (the ids of a sink's deliveries) is a subsequence
/// of `sent`: dropped packets vanish, the survivors keep their order.
bool is_subsequence(const std::vector<SinkNode::Delivery>& delivered,
                    const std::vector<std::uint16_t>& sent) {
  std::size_t next = 0;
  for (const auto& d : delivered) {
    while (next < sent.size() && sent[next] != d.packet.header.identification) ++next;
    if (next == sent.size()) return false;
    ++next;
  }
  return true;
}

// The link's in-flight FIFO hands each delivery the packet that entered the
// pipe first. Under jitter, random loss and an outage episode, both
// directions must deliver a subsequence of their send order, each packet
// with its own bytes, and the conservation ledger must balance both mid-run
// (packets queued and in flight) and at the end.
TEST(Link, DeliveryOrderEqualsEnqueueOrderUnderImpairments) {
  LinkFixture f;
  audit::Auditor auditor;
  f.loop.set_auditor(&auditor);
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(2);
  cfg.propagation = Duration::millis(3);
  cfg.jitter_stddev = Duration::millis(8);
  cfg.loss_probability = 0.1;
  auto link = f.make(cfg, 29);

  Rng rng(31);
  std::vector<std::uint16_t> sent_ab;
  std::vector<std::uint16_t> sent_ba;
  for (std::uint16_t id = 0; id < 600; ++id) {
    const SimTime at = SimTime::from_seconds(rng.uniform(0.0, 2.0));
    f.loop.post_at(at, [&, id] {
      const Ipv4Packet pkt = small_packet(id, payload_for(id));
      if (id % 3 != 0) {
        sent_ab.push_back(id);
        link->send_from_a(pkt);
      } else {
        sent_ba.push_back(id);
        link->send_from_b(pkt);
      }
    });
  }
  f.loop.post_at(SimTime::from_seconds(0.7), [&link] {
    LinkImpairment outage;
    outage.outage = true;
    link->set_impairment(outage);
  });
  f.loop.post_at(SimTime::from_seconds(0.9), [&link] { link->clear_impairment(); });

  f.loop.run_until(SimTime::from_seconds(1.0));
  link->audit_conservation(auditor, f.loop.now());
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
  f.loop.run();
  link->audit_conservation(auditor, f.loop.now());
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();

  const auto& ab = link->stats_a_to_b();
  const auto& ba = link->stats_b_to_a();
  EXPECT_GT(ab.packets_dropped_loss, 0u);
  EXPECT_GT(ab.packets_dropped_outage, 0u);
  EXPECT_GT(ba.packets_dropped_outage, 0u);
  EXPECT_EQ(f.b.deliveries.size(), ab.packets_delivered);
  EXPECT_EQ(f.a.deliveries.size(), ba.packets_delivered);
  EXPECT_GT(f.b.deliveries.size(), 200u);
  EXPECT_GT(f.a.deliveries.size(), 100u);
  EXPECT_TRUE(is_subsequence(f.b.deliveries, sent_ab));
  EXPECT_TRUE(is_subsequence(f.a.deliveries, sent_ba));
  for (const auto* sink : {&f.a, &f.b}) {
    for (std::size_t i = 0; i < sink->deliveries.size(); ++i) {
      const auto& d = sink->deliveries[i];
      if (i > 0) {
        EXPECT_LE(sink->deliveries[i - 1].when, d.when);
      }
      EXPECT_EQ(d.packet.payload.size(),
                kUdpHeaderSize + payload_for(d.packet.header.identification));
    }
  }
}

TEST(Link, StatsCountBytes) {
  LinkFixture f;
  auto link = f.make(LinkConfig{});
  link->send_from_a(small_packet(1, 100));
  f.loop.run();
  EXPECT_EQ(link->stats_a_to_b().bytes_delivered, 142u);
  EXPECT_EQ(link->stats_b_to_a().bytes_delivered, 0u);
}

}  // namespace
}  // namespace streamlab
