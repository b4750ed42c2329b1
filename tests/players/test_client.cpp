#include "players/client.hpp"

#include <gtest/gtest.h>

#include "player_test_util.hpp"

namespace streamlab {
namespace {

using testutil::Session;
using testutil::short_clip;

TEST(StreamClient, ReceivesWholeClip) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  s.run();
  EXPECT_TRUE(s.client->end_of_stream());
  EXPECT_EQ(s.client->media_bytes_received(), s.encoded.total_bytes());
  EXPECT_EQ(s.client->stats().packets_lost, 0u);
  EXPECT_EQ(s.client->stats().packets_received, s.send_log.size());
}

TEST(StreamClient, PlaybackStartsAfterPreroll) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  s.run();
  ASSERT_TRUE(s.client->playback_started());
  ASSERT_TRUE(s.client->first_data_time().has_value());
  const Duration preroll =
      *s.client->playout_start_time() - *s.client->first_data_time();
  EXPECT_EQ(preroll, WmBehavior{}.preroll);
}

TEST(StreamClient, RealPrerollDiffers) {
  Session s(short_clip(PlayerKind::kRealPlayer, 50));
  s.run();
  ASSERT_TRUE(s.client->playback_started());
  const Duration preroll =
      *s.client->playout_start_time() - *s.client->first_data_time();
  EXPECT_EQ(preroll, RmBehavior{}.preroll);
}

TEST(StreamClient, RendersEssentiallyAllFramesOnCleanPath) {
  Session s(short_clip(PlayerKind::kRealPlayer, 60, 20));
  s.run();
  EXPECT_TRUE(s.client->stats().completed);
  const auto total = s.client->stats().frames_rendered + s.client->stats().frames_dropped;
  EXPECT_EQ(total, s.encoded.frames().size());
  EXPECT_GE(static_cast<double>(s.client->stats().frames_rendered) / total, 0.98);
}

TEST(StreamClient, FrameEventsMatchPlayoutSchedule) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 150, 12));
  s.run();
  const auto& events = s.client->frame_events();
  ASSERT_EQ(events.size(), s.encoded.frames().size());
  const SimTime start = *s.client->playout_start_time();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].frame_index, i);
    EXPECT_EQ(events[i].time, start + s.encoded.frames()[i].pts);
  }
}

TEST(StreamClient, WmAppDeliveryBatchedOncePerSecond) {
  // Figure 12: the application sees packets in batches once per second.
  Session s(short_clip(PlayerKind::kMediaPlayer, 250, 15));
  s.run();
  const auto& packets = s.client->packets();
  ASSERT_GT(packets.size(), 20u);

  // Collect distinct app release instants.
  std::vector<SimTime> releases;
  for (const auto& ev : packets) {
    EXPECT_GE(ev.app_time, ev.network_time);  // release never precedes arrival
    if (releases.empty() || ev.app_time != releases.back())
      releases.push_back(ev.app_time);
  }
  ASSERT_GT(releases.size(), 5u);
  // Consecutive releases are spaced by the batch interval.
  for (std::size_t i = 1; i < releases.size(); ++i)
    EXPECT_NEAR((releases[i] - releases[i - 1]).to_seconds(), 1.0, 0.01);

  // At 250 Kbps the server sends every 100 ms -> ~10 packets per batch,
  // the "groups of 10, once per second" of Figure 12.
  std::size_t batch = 0;
  std::vector<std::size_t> batch_sizes;
  SimTime current = packets.front().app_time;
  for (const auto& ev : packets) {
    if (ev.app_time != current) {
      batch_sizes.push_back(batch);
      batch = 0;
      current = ev.app_time;
    }
    ++batch;
  }
  std::size_t tens = 0;
  for (const auto b : batch_sizes) tens += (b >= 9 && b <= 11);
  EXPECT_GT(tens, batch_sizes.size() / 2);
}

TEST(StreamClient, RmAppDeliveryImmediate) {
  Session s(short_clip(PlayerKind::kRealPlayer, 100, 10));
  s.run();
  for (const auto& ev : s.client->packets())
    EXPECT_EQ(ev.app_time, ev.network_time);
}

TEST(StreamClient, AveragePlaybackRateNearEncodingForWm) {
  // Figure 3: MediaPlayer plays back at the encoding rate.
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 150, 30);
  Session s(clip);
  s.run();
  EXPECT_NEAR(s.client->average_playback_rate().to_kbps(), 150.0, 8.0);
}

TEST(StreamClient, AveragePlaybackRateAboveEncodingForRm) {
  // Figure 3: RealPlayer's average data rate exceeds its encoding rate.
  const auto clip = short_clip(PlayerKind::kRealPlayer, 50, 60);
  Session s(clip);
  s.run();
  EXPECT_GT(s.client->average_playback_rate().to_kbps(), 55.0);
}

TEST(StreamClient, LossyPathCountsLostPackets) {
  PathConfig path = testutil::fast_path();
  path.loss_probability = 0.05;
  path.seed = 3;
  Session s(short_clip(PlayerKind::kRealPlayer, 100, 20), path);
  s.run();
  EXPECT_GT(s.client->stats().packets_lost, 0u);
  EXPECT_LT(s.client->media_bytes_received(), s.encoded.total_bytes());
}

TEST(StreamClient, LossyPathDropsAffectedFramesOnly) {
  PathConfig path = testutil::fast_path();
  path.loss_probability = 0.02;
  path.seed = 11;
  Session s(short_clip(PlayerKind::kMediaPlayer, 150, 20), path);
  s.run();
  EXPECT_GT(s.client->stats().frames_dropped, 0u);
  EXPECT_GT(s.client->stats().frames_rendered, s.client->stats().frames_dropped * 5);
}

TEST(StreamClient, IgnoresTrafficFromOtherServers) {
  Session s(short_clip(PlayerKind::kMediaPlayer, 100));
  // A second server sends garbage to the client's port.
  Host& rogue = s.net.add_server("rogue");
  s.client->start();
  s.net.loop().schedule_in(Duration::seconds(1), [&] {
    const auto junk = DataHeader::make_packet(DataHeader{}, 100);
    rogue.udp_send(999, Endpoint{s.net.client().address(), kMediaClientPort}, junk);
  });
  s.net.loop().run_until(s.net.loop().now() + s.encoded.info().length +
                         Duration::seconds(30));
  // Byte accounting still exact: the rogue packet was discarded.
  EXPECT_EQ(s.client->media_bytes_received(), s.encoded.total_bytes());
}

}  // namespace
}  // namespace streamlab
