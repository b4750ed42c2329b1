#include "players/server.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "player_test_util.hpp"

namespace streamlab {
namespace {

using testutil::Session;
using testutil::short_clip;

TEST(StreamServer, StartsOnPlayRequest) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  EXPECT_FALSE(s.server->started());
  s.run();
  EXPECT_TRUE(s.server->started());
  EXPECT_TRUE(s.server->finished());
  EXPECT_TRUE(s.client->play_ok_received());
}

TEST(StreamServer, IgnoresMismatchedClipId) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  // A rogue client asks for a different clip id.
  ControlMessage wrong{ControlType::kPlayRequest, "set9/M-x"};
  const auto bytes = wrong.encode();
  s.net.client().udp_send(5555, Endpoint{s.server_host.address(), kMediaServerPort},
                          bytes);
  s.net.loop().run_until(SimTime::from_seconds(2));
  EXPECT_FALSE(s.server->started());
}

TEST(StreamServer, SendsAllMediaBytesExactly) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 150));
  s.run();
  std::uint64_t sent = 0;
  for (const auto& ev : s.send_log) sent += ev.media_len;
  EXPECT_EQ(sent, s.encoded.total_bytes());
}

TEST(StreamServer, SequenceNumbersAndOffsetsMonotone) {
  Session s(short_clip(PlayerKind::kRealPlayer, 80));
  s.run();
  const auto& log = s.send_log;
  ASSERT_GT(log.size(), 10u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, log[i - 1].seq + 1);
    EXPECT_EQ(log[i].media_offset, log[i - 1].media_offset + log[i - 1].media_len);
  }
}

TEST(StreamServer, PlayWithOffsetResumesMidClip) {
  // A failover PLAY carrying a resume offset must start the stream at that
  // media position, not from byte zero.
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  const std::uint64_t resume = s.encoded.total_bytes() / 2;
  ControlMessage play{ControlType::kPlayRequest, s.encoded.info().id()};
  play.offset = resume;
  s.net.client().udp_send(5555, Endpoint{s.server_host.address(), kMediaServerPort},
                          play.encode());
  s.net.loop().run_until(s.net.loop().now() + s.encoded.info().length +
                         Duration::seconds(30));

  ASSERT_TRUE(s.server->started());
  const auto& log = s.send_log;
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().media_offset, resume);
  std::uint64_t sent = 0;
  for (const auto& ev : log) sent += ev.media_len;
  EXPECT_EQ(sent, s.encoded.total_bytes() - resume);  // only the tail
}

TEST(StreamServer, PlayOffsetPastEndClampsToEnd) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  ControlMessage play{ControlType::kPlayRequest, s.encoded.info().id()};
  play.offset = s.encoded.total_bytes() + 1000;
  s.net.client().udp_send(5555, Endpoint{s.server_host.address(), kMediaServerPort},
                          play.encode());
  s.net.loop().run_until(s.net.loop().now() + s.encoded.info().length +
                         Duration::seconds(30));

  ASSERT_TRUE(s.server->started());
  std::uint64_t sent = 0;
  for (const auto& ev : s.send_log) sent += ev.media_len;
  EXPECT_EQ(sent, 0u);  // nothing left to send, and no crash or underflow
}

TEST(MakeServer, PortsFollowThePlayer) {
  struct Case {
    PlayerKind player;
    std::uint16_t local_port;  // 0 = the client's default
    std::uint16_t server_port;
    std::uint16_t client_port;
  };
  const Case cases[] = {
      {PlayerKind::kMediaPlayer, 0, kMediaServerPort, 7000},
      {PlayerKind::kRealPlayer, 0, kRealServerPort, 6970},
      {PlayerKind::kMediaPlayer, 20001, kMediaServerPort, 20001},
      {PlayerKind::kRealPlayer, 20002, kRealServerPort, 20002},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << to_string(c.player) << " local_port "
                                      << c.local_port);
    Network net(testutil::fast_path());
    Host& host = net.add_server("srv");
    const auto server = make_server(host, encode_clip(short_clip(c.player, 100), 7),
                                    WmBehavior{}, RmBehavior{}, 7);
    EXPECT_EQ(server->port(), c.server_port);
    EXPECT_EQ(server->endpoint(), (Endpoint{host.address(), c.server_port}));
    if (c.player == PlayerKind::kMediaPlayer)
      EXPECT_NE(dynamic_cast<WmServer*>(server.get()), nullptr);
    else
      EXPECT_NE(dynamic_cast<RmServer*>(server.get()), nullptr);

    StreamClient::Config cc;
    cc.kind = c.player;
    cc.local_port = c.local_port;
    const StreamClient client(net.client(), server->clip(), server->endpoint(), cc);
    EXPECT_EQ(client.port(), c.client_port);
  }
}

TEST(WmServer, ConstantPacketSizeAndInterval) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 250, 20));
  s.run();
  const auto& log = s.send_log;
  ASSERT_GT(log.size(), 20u);

  // All datagrams except the final remainder carry identical media bytes.
  for (std::size_t i = 0; i + 1 < log.size(); ++i)
    EXPECT_EQ(log[i].media_len, log[0].media_len) << i;

  // Intervals are exactly constant (CBR): Figures 8-9.
  const Duration gap0 = log[1].time - log[0].time;
  for (std::size_t i = 2; i + 1 < log.size(); ++i)
    EXPECT_EQ(log[i].time - log[i - 1].time, gap0) << i;
}

TEST(WmServer, NeverMarksBufferingPhase) {
  // Section 3.F: MediaPlayer buffers at the playout rate — no burst phase.
  Session s(short_clip(PlayerKind::kMediaPlayer, 100, 15));
  s.run();
  for (const auto& ev : s.send_log) EXPECT_FALSE(ev.buffering_phase);
}

TEST(StreamServer, StatsCountEverySendAndItsSpan) {
  // The counters production code reads agree with the per-packet log.
  Session s(short_clip(PlayerKind::kRealPlayer, 80, 20));
  s.run();
  const auto& log = s.send_log;
  ASSERT_GT(log.size(), 10u);
  const StreamServer::Stats stats = s.server->stats();
  EXPECT_EQ(stats.packets_sent, log.size());
  EXPECT_EQ(stats.first_send, log.front().time);
  EXPECT_EQ(stats.last_send, log.back().time);
  EXPECT_EQ(s.server->streaming_duration(), log.back().time - log.front().time);
}

TEST(WmServer, StreamingDurationMatchesClipLength) {
  // Sending at exactly the encoding rate means streaming lasts the clip
  // duration (Figure 10: WM streams for the whole clip).
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 200, 30);
  Session s(clip);
  s.run();
  EXPECT_NEAR(s.server->streaming_duration().to_seconds(),
              clip.length.to_seconds(), 1.0);
}

TEST(RmServer, BurstPhaseThenSteady) {
  const auto clip = short_clip(PlayerKind::kRealPlayer, 40, 90);
  Session s(clip);
  s.run();
  const auto& log = s.send_log;
  ASSERT_GT(log.size(), 50u);

  // Buffering-phase packets first, then steady-phase, no interleaving.
  bool seen_steady = false;
  std::size_t burst_packets = 0;
  for (const auto& ev : log) {
    if (ev.buffering_phase) {
      EXPECT_FALSE(seen_steady) << "burst after steady";
      ++burst_packets;
    } else {
      seen_steady = true;
    }
  }
  EXPECT_GT(burst_packets, 0u);
  EXPECT_TRUE(seen_steady);

  // Burst duration ~20 s for a 40 Kbps clip (Section IV).
  const Duration burst_span = log[burst_packets - 1].time - log[0].time;
  EXPECT_NEAR(burst_span.to_seconds(), 20.0, 2.0);
}

TEST(RmServer, BurstRateIsRatioTimesSteady) {
  const auto clip = short_clip(PlayerKind::kRealPlayer, 50, 90);
  Session s(clip);
  s.run();
  const auto& log = s.send_log;

  double burst_bytes = 0, steady_bytes = 0;
  Duration burst_span, steady_span;
  SimTime burst_start = log.front().time, steady_start;
  bool in_steady = false;
  for (const auto& ev : log) {
    if (ev.buffering_phase) {
      burst_bytes += static_cast<double>(ev.media_len);
      burst_span = ev.time - burst_start;
    } else {
      if (!in_steady) {
        steady_start = ev.time;
        in_steady = true;
      }
      steady_bytes += static_cast<double>(ev.media_len);
      steady_span = ev.time - steady_start;
    }
  }
  ASSERT_GT(burst_span.to_seconds(), 5.0);
  ASSERT_GT(steady_span.to_seconds(), 5.0);
  const double burst_rate = burst_bytes / burst_span.to_seconds();
  const double steady_rate = steady_bytes / steady_span.to_seconds();
  const double expected_ratio = RmBehavior{}.buffering_ratio(clip.encoded_rate);
  EXPECT_NEAR(burst_rate / steady_rate, expected_ratio, 0.35);
}

TEST(RmServer, StreamingDurationShorterThanClip) {
  // Figure 10: RealPlayer finishes streaming (rho-1) x burst earlier.
  const auto clip = short_clip(PlayerKind::kRealPlayer, 40, 80);
  Session s(clip);
  s.run();
  const double rho = RmBehavior{}.buffering_ratio(clip.encoded_rate);
  const double burst = RmBehavior{}.burst_duration(clip.encoded_rate).to_seconds();
  const double expected = clip.length.to_seconds() - (rho - 1.0) * burst;
  EXPECT_NEAR(s.server->streaming_duration().to_seconds(), expected, 4.0);
}

TEST(RmServer, PacketSizesVaried) {
  Session s(short_clip(PlayerKind::kRealPlayer, 80, 30));
  s.run();
  const auto& log = s.send_log;
  std::size_t distinct = 0;
  for (std::size_t i = 1; i < log.size(); ++i)
    distinct += log[i].media_len != log[0].media_len;
  // Nearly every RealPlayer packet differs in size (Figures 6-7).
  EXPECT_GT(distinct, log.size() / 2);
}

TEST(RmServer, DeterministicGivenSeed) {
  const auto clip = short_clip(PlayerKind::kRealPlayer, 60, 15);
  Session a(clip, testutil::fast_path(), 99);
  a.run();
  Session b(clip, testutil::fast_path(), 99);
  b.run();
  ASSERT_EQ(a.send_log.size(), b.send_log.size());
  for (std::size_t i = 0; i < a.send_log.size(); ++i) {
    EXPECT_EQ(a.send_log[i].media_len, b.send_log[i].media_len);
    EXPECT_EQ(a.send_log[i].time, b.send_log[i].time);
  }
}

TEST(StreamServer, SecondPlayRequestIgnored) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  s.client->start();
  s.net.loop().run_until(SimTime::from_seconds(1));
  const std::size_t sent_after_1s = s.send_log.size();
  // Re-sending PLAY must not restart the stream.
  s.client->start();
  s.net.loop().run_until(SimTime::from_seconds(2));
  const std::size_t sent_after_2s = s.send_log.size();
  // Stream continues from where it was, no duplicate session (offsets
  // stay monotone — checked by the monotone test — and the rate is steady).
  EXPECT_GT(sent_after_2s, sent_after_1s);
  const auto& log = s.send_log;
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_GT(log[i].media_offset, log[i - 1].media_offset);
}

}  // namespace
}  // namespace streamlab
