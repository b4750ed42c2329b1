// Session-level recovery: PLAY retransmission with exponential backoff,
// session abandonment after exhausted retries, the mid-stream data-inactivity
// watchdog, and the server's idempotent handling of duplicate PLAY requests.
#include <gtest/gtest.h>

#include <functional>

#include "player_test_util.hpp"

namespace streamlab {
namespace {

StreamClient::Config rm_config() {
  StreamClient::Config cc;
  cc.kind = PlayerKind::kRealPlayer;
  return cc;
}

/// Client and server wired back-to-back with a programmable drop predicate
/// per direction — lets tests lose exactly the control packet they want.
struct WireHarness {
  EventLoop loop;
  Host client_host{loop, "client", Ipv4Address(10, 0, 0, 2)};
  Host server_host{loop, "server", Ipv4Address(192, 168, 100, 10)};
  EncodedClip clip;
  RmServer server;
  StreamClient client;
  std::function<bool(const Ipv4Packet&)> drop_to_server;
  std::function<bool(const Ipv4Packet&)> drop_to_client;

  explicit WireHarness(StreamClient::Config cc, int clip_seconds = 10)
      : clip(encode_clip(testutil::short_clip(PlayerKind::kRealPlayer, 50, clip_seconds), 1)),
        server(server_host, clip, RmBehavior{}, kRealServerPort, 42),
        client(client_host, clip, Endpoint{server_host.address(), kRealServerPort}, cc) {
    client_host.attach_interface([this](const Ipv4Packet& p) {
      if (drop_to_server && drop_to_server(p)) return;
      loop.schedule_in(Duration::micros(50), [this, p] { server_host.handle_packet(p, 0); });
    });
    server_host.attach_interface([this](const Ipv4Packet& p) {
      if (drop_to_client && drop_to_client(p)) return;
      loop.schedule_in(Duration::micros(50), [this, p] { client_host.handle_packet(p, 0); });
    });
  }
};

TEST(SessionRecovery, LostPlayRequestRecoveredByRetry) {
  auto cc = rm_config();
  cc.recovery.play_timeout = Duration::millis(200);
  WireHarness h(cc);
  int to_server = 0;
  h.drop_to_server = [&](const Ipv4Packet&) { return to_server++ == 0; };

  h.client.start();
  h.loop.run();

  EXPECT_EQ(h.client.stats().play_attempts, 2u);
  EXPECT_TRUE(h.client.stats().established);
  EXPECT_FALSE(h.client.stats().abandoned);
  EXPECT_TRUE(h.server.started());
  EXPECT_TRUE(h.client.end_of_stream());
  EXPECT_EQ(h.client.stats().packets_lost, 0u);
  ASSERT_TRUE(h.client.session_established_time());
  // Establishment had to wait for the retransmission at +200ms.
  EXPECT_GE(*h.client.session_established_time(), SimTime::from_seconds(0.2));
}

TEST(SessionRecovery, AbandonedAfterMaxRetries) {
  auto cc = rm_config();
  cc.recovery.play_timeout = Duration::millis(100);
  cc.recovery.max_play_attempts = 3;
  WireHarness h(cc);
  h.drop_to_server = [](const Ipv4Packet&) { return true; };  // server unreachable

  h.client.start();
  h.loop.run();  // must drain: no retry timer may survive abandonment

  EXPECT_TRUE(h.client.stats().abandoned);
  EXPECT_EQ(h.client.stats().play_attempts, 3u);
  EXPECT_FALSE(h.client.stats().established);
  EXPECT_FALSE(h.server.started());
  EXPECT_EQ(h.client.stats().packets_received, 0u);
  ASSERT_TRUE(h.client.session_failure_time());
  // Attempts at 0, 100ms, 300ms (backoff x2); abandoned at 700ms.
  EXPECT_EQ(*h.client.session_failure_time(), SimTime::from_seconds(0.7));
}

TEST(SessionRecovery, RetryTimerInertWhenHandshakeSucceeds) {
  auto cc = rm_config();
  cc.recovery.play_timeout = Duration::millis(100);
  WireHarness h(cc);

  h.client.start();
  h.loop.run();

  EXPECT_EQ(h.client.stats().play_attempts, 1u);
  EXPECT_TRUE(h.client.play_ok_received());
  EXPECT_TRUE(h.client.end_of_stream());
  EXPECT_EQ(h.server.stats().duplicate_play_requests, 0u);
}

TEST(SessionRecovery, WatchdogDeclaresStreamDeadAfterSilence) {
  auto cc = rm_config();
  cc.recovery.inactivity_timeout = Duration::seconds(1);
  WireHarness h(cc);
  // The wire to the client goes dark for good two seconds in.
  h.drop_to_client = [&](const Ipv4Packet&) {
    return h.loop.now() >= SimTime::from_seconds(2.0);
  };

  h.client.start();
  h.loop.run();  // must drain: a dead stream may not keep timers alive

  EXPECT_TRUE(h.client.stats().established);
  EXPECT_TRUE(h.client.stats().stream_dead);
  EXPECT_FALSE(h.client.end_of_stream());
  EXPECT_GT(h.client.stats().frames_dropped, 0u);
  ASSERT_TRUE(h.client.session_failure_time());
  // Declared dead one inactivity window after the last packet (~2s).
  EXPECT_GE(*h.client.session_failure_time(), SimTime::from_seconds(2.9));
  EXPECT_LE(*h.client.session_failure_time(), SimTime::from_seconds(3.2));
}

TEST(SessionRecovery, WatchdogCatchesOutageRightAfterHandshake) {
  auto cc = rm_config();
  cc.recovery.inactivity_timeout = Duration::seconds(1);
  WireHarness h(cc);
  // Only the PLAY-OK survives; the wire goes permanently dark before any
  // data packet. The watchdog armed at establishment must still fire.
  int from_server = 0;
  h.drop_to_client = [&](const Ipv4Packet&) { return from_server++ > 0; };

  h.client.start();
  h.loop.run();  // must drain: the dead session may not hang the loop

  EXPECT_TRUE(h.client.play_ok_received());
  EXPECT_TRUE(h.client.stats().established);
  EXPECT_EQ(h.client.stats().packets_received, 0u);
  EXPECT_TRUE(h.client.stats().stream_dead);
  ASSERT_TRUE(h.client.session_failure_time());
  // Dead one inactivity window after establishment (handshake takes ~100µs).
  EXPECT_GE(*h.client.session_failure_time(), SimTime::from_seconds(1.0));
  EXPECT_LE(*h.client.session_failure_time(), SimTime::from_seconds(1.1));
}

TEST(SessionRecovery, WatchdogDisabledByDefaultToleratesSilence) {
  auto cc = rm_config();  // inactivity_timeout stays zero()
  WireHarness h(cc);
  h.drop_to_client = [&](const Ipv4Packet&) {
    return h.loop.now() >= SimTime::from_seconds(2.0);
  };

  h.client.start();
  h.loop.run();

  EXPECT_FALSE(h.client.stats().stream_dead);
  EXPECT_FALSE(h.client.session_failure_time().has_value());
}

TEST(SessionRecovery, DuplicatePlayReAcknowledgedNotRestarted) {
  auto cc = rm_config();
  cc.recovery.play_timeout = Duration::millis(500);
  WireHarness h(cc);
  // Every server->client packet in the first half-second is lost: the first
  // PLAY-OK (and early data) vanish, so the client retransmits PLAY into an
  // already-started session.
  h.drop_to_client = [&](const Ipv4Packet&) {
    return h.loop.now() < SimTime::from_seconds(0.5);
  };

  h.client.start();
  h.loop.run();

  EXPECT_EQ(h.client.stats().play_attempts, 2u);
  EXPECT_EQ(h.server.stats().duplicate_play_requests, 1u);
  EXPECT_TRUE(h.client.play_ok_received());
  EXPECT_TRUE(h.client.stats().established);
  EXPECT_FALSE(h.client.stats().abandoned);
  // The send schedule started once: sequence numbers never reset, so the
  // stream still ends cleanly and late packets are counted as lost, not
  // replayed.
  EXPECT_TRUE(h.client.end_of_stream());
  EXPECT_GT(h.client.stats().packets_lost, 0u);
}

}  // namespace
}  // namespace streamlab
