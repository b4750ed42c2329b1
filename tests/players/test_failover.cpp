// Mirror failover (DESIGN.md §11): exhausted PLAY retries, the inactivity
// watchdog, and ICMP Destination Unreachable all switch the session to a
// mirror server, resuming at the current contiguous media position instead
// of abandoning the stream.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "player_test_util.hpp"
#include "util/bytes.hpp"

namespace streamlab {
namespace {

/// Client wired to a primary and a mirror server with per-direction drop
/// predicates; dropped client->primary packets can optionally be answered
/// with Destination Unreachable, standing in for a boundary router whose
/// route through a dead span was withdrawn.
struct FailoverHarness {
  EventLoop loop;
  Host client_host{loop, "client", Ipv4Address(10, 0, 0, 2)};
  Host primary_host{loop, "primary", Ipv4Address(192, 168, 100, 10)};
  Host mirror_host{loop, "mirror", Ipv4Address(192, 168, 100, 20)};
  EncodedClip clip;
  RmServer primary;
  RmServer mirror;
  std::unique_ptr<StreamClient> client;
  std::vector<StreamServer::SendEvent> mirror_sends;
  std::function<bool(const Ipv4Packet&)> drop_to_primary;
  std::function<bool(const Ipv4Packet&)> drop_from_primary;
  std::function<bool(const Ipv4Packet&)> drop_to_mirror;
  bool unreachable_on_primary_drop = false;
  std::uint16_t icmp_ip_id = 1;

  explicit FailoverHarness(StreamClient::Config cc, int clip_seconds = 10)
      : clip(encode_clip(testutil::short_clip(PlayerKind::kRealPlayer, 50, clip_seconds), 1)),
        primary(primary_host, clip, RmBehavior{}, kRealServerPort, 42),
        mirror(mirror_host, clip, RmBehavior{}, kRealServerPort, 43) {
    testutil::record_sends(mirror, mirror_sends);
    cc.kind = PlayerKind::kRealPlayer;
    cc.failover.mirrors.push_back(Endpoint{mirror_host.address(), kRealServerPort});
    client = std::make_unique<StreamClient>(
        client_host, clip, Endpoint{primary_host.address(), kRealServerPort}, cc);

    client_host.attach_interface([this](const Ipv4Packet& p) {
      if (p.header.dst == primary_host.address()) {
        if (drop_to_primary && drop_to_primary(p)) {
          if (unreachable_on_primary_drop) send_unreachable(p);
          return;
        }
        deliver(primary_host, p);
      } else if (p.header.dst == mirror_host.address()) {
        if (drop_to_mirror && drop_to_mirror(p)) return;
        deliver(mirror_host, p);
      }
    });
    primary_host.attach_interface([this](const Ipv4Packet& p) {
      if (drop_from_primary && drop_from_primary(p)) return;
      deliver(client_host, p);
    });
    mirror_host.attach_interface([this](const Ipv4Packet& p) { deliver(client_host, p); });
  }

  void deliver(Host& to, const Ipv4Packet& p) {
    loop.schedule_in(Duration::micros(50), [&to, p] { to.handle_packet(p, 0); });
  }

  /// RFC 792 Destination Unreachable quoting the dropped packet, as a
  /// router between client and primary would emit it.
  void send_unreachable(const Ipv4Packet& dropped) {
    ByteWriter quoted(kIpv4HeaderSize + 8);
    dropped.header.encode(quoted);
    const std::size_t quote = std::min<std::size_t>(8, dropped.payload.size());
    quoted.bytes(dropped.payload.bytes().subspan(0, quote));
    IcmpHeader icmp;
    icmp.type = IcmpType::kDestinationUnreachable;
    const Ipv4Packet error = make_icmp_packet(
        Ipv4Address(10, 0, 0, 1), client_host.address(), icmp, quoted.view(), icmp_ip_id++);
    deliver(client_host, error);
  }

  Endpoint mirror_endpoint() const {
    return Endpoint{mirror_host.address(), kRealServerPort};
  }
};

StreamClient::Config failover_config() {
  StreamClient::Config cc;
  cc.kind = PlayerKind::kRealPlayer;
  cc.recovery.play_timeout = Duration::millis(100);
  cc.recovery.max_play_attempts = 2;
  return cc;
}

TEST(Failover, ExhaustedPlayRetriesSwitchToMirror) {
  FailoverHarness h(failover_config());
  h.drop_to_primary = [](const Ipv4Packet&) { return true; };

  h.client->start();
  h.loop.run();

  EXPECT_EQ(h.client->stats().failovers, 1u);
  EXPECT_FALSE(h.client->stats().abandoned);
  EXPECT_TRUE(h.client->stats().established);
  EXPECT_EQ(h.client->active_server(), h.mirror_endpoint());
  EXPECT_FALSE(h.primary.started());
  EXPECT_TRUE(h.mirror.started());
  EXPECT_TRUE(h.client->end_of_stream());
  EXPECT_EQ(h.client->stats().resume_offset, 0u);  // nothing received before the switch
}

TEST(Failover, IcmpUnreachableFailsOverBeforeRetriesExhaust) {
  auto cc = failover_config();
  cc.recovery.max_play_attempts = 10;
  cc.failover.icmp_unreachable_threshold = 3;
  FailoverHarness h(cc);
  h.drop_to_primary = [](const Ipv4Packet&) { return true; };
  h.unreachable_on_primary_drop = true;

  h.client->start();
  h.loop.run();

  // Three quoted unreachables hit the threshold; the session switched long
  // before the ten PLAY attempts were spent.
  EXPECT_EQ(h.client->stats().icmp_unreachables, 3u);
  EXPECT_EQ(h.client->stats().failovers, 1u);
  EXPECT_TRUE(h.client->stats().established);
  EXPECT_LT(h.client->stats().play_attempts, 10u);
  EXPECT_TRUE(h.mirror.started());
}

TEST(Failover, UnreachableQuotingOtherDestinationsIgnored) {
  // An ICMP error quoting a packet to some *other* host must not count
  // against the active server.
  auto cc = failover_config();
  cc.failover.icmp_unreachable_threshold = 1;
  FailoverHarness h(cc);

  h.client->start();
  // Hand-deliver an unreachable quoting an unrelated destination.
  const std::vector<std::uint8_t> junk(8, 0);
  const Ipv4Packet unrelated =
      make_udp_packet(Endpoint{h.client_host.address(), 1}, Endpoint{Ipv4Address(1, 2, 3, 4), 2},
                      junk, 99);
  h.loop.schedule_at(SimTime::from_seconds(0.01), [&] { h.send_unreachable(unrelated); });
  h.loop.run();

  EXPECT_EQ(h.client->stats().icmp_unreachables, 0u);
  EXPECT_EQ(h.client->stats().failovers, 0u);
  EXPECT_EQ(h.client->active_server(),
            (Endpoint{h.primary_host.address(), kRealServerPort}));
  EXPECT_TRUE(h.client->end_of_stream());
}

TEST(Failover, WatchdogSilenceResumesOnMirrorAtContiguousPrefix) {
  auto cc = failover_config();
  cc.recovery.inactivity_timeout = Duration::millis(500);
  FailoverHarness h(cc, 10);
  // Primary serves normally, then goes silent mid-stream.
  const SimTime cutoff = SimTime::from_seconds(2.0);
  h.drop_from_primary = [&](const Ipv4Packet&) { return h.loop.now() >= cutoff; };

  h.client->start();
  h.loop.run();

  EXPECT_EQ(h.client->stats().failovers, 1u);
  EXPECT_TRUE(h.client->stats().established);
  EXPECT_FALSE(h.client->stats().stream_dead);
  EXPECT_TRUE(h.client->end_of_stream());
  EXPECT_GT(h.client->stats().resume_offset, 0u);
  EXPECT_EQ(h.client->active_server(), h.mirror_endpoint());
  // The mirror's PLAY carried the resume offset: its first media byte is
  // exactly where the client's contiguous prefix ended.
  ASSERT_FALSE(h.mirror_sends.empty());
  EXPECT_EQ(h.mirror_sends.front().media_offset, h.client->stats().resume_offset);
}

TEST(Failover, AbandonsOnlyAfterMirrorsExhaust) {
  FailoverHarness h(failover_config());
  h.drop_to_primary = [](const Ipv4Packet&) { return true; };
  h.drop_to_mirror = [](const Ipv4Packet&) { return true; };

  h.client->start();
  h.loop.run();

  EXPECT_EQ(h.client->stats().failovers, 1u);  // tried the mirror...
  EXPECT_TRUE(h.client->stats().abandoned);  // ...then ran out of options
  EXPECT_FALSE(h.client->stats().established);
  // Two attempts against each server.
  EXPECT_EQ(h.client->stats().play_attempts, 4u);
}

TEST(Failover, StallIntervalsSumToTotalStallTime) {
  auto cc = failover_config();
  cc.rebuffering = true;
  cc.recovery.inactivity_timeout = Duration::millis(800);
  FailoverHarness h(cc, 10);
  const SimTime cutoff = SimTime::from_seconds(2.0);
  h.drop_from_primary = [&](const Ipv4Packet&) { return h.loop.now() >= cutoff; };

  h.client->start();
  h.loop.run();

  EXPECT_TRUE(h.client->end_of_stream());
  const auto& stalls = h.client->stall_intervals();
  Duration sum;
  for (const auto& [start, end] : stalls) {
    EXPECT_GT(end, start);
    sum += end - start;
  }
  EXPECT_EQ(sum, h.client->stats().stall_time);
}

}  // namespace
}  // namespace streamlab
