// Tests of the stall-capable (rebuffering) playout mode.
#include <gtest/gtest.h>

#include "player_test_util.hpp"

namespace streamlab {
namespace {

using testutil::fast_path;
using testutil::short_clip;

/// A session over `path` with its client in stall (rebuffering) or drop mode.
testutil::Session rebuffer_session(const ClipInfo& clip, const PathConfig& path,
                                   bool rebuffering) {
  StreamClient::Config player;
  player.rebuffering = rebuffering;
  return testutil::Session(clip, path, 7, player);
}

TEST(Rebuffering, CleanPathBehavesLikeDropMode) {
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 150, 15);
  auto s = rebuffer_session(clip, fast_path(), /*rebuffering=*/true);
  s.run();
  EXPECT_TRUE(s.client->stats().completed);
  EXPECT_EQ(s.client->stats().frames_dropped, 0u);
  EXPECT_EQ(s.client->stats().rebuffer_events, 0u);
  EXPECT_EQ(s.client->stats().stall_time, Duration::zero());
  EXPECT_EQ(s.client->stats().frames_rendered, s.encoded.frames().size());
}

TEST(Rebuffering, LossCausesStallsNotDrops) {
  // Random loss leaves holes; with UDP (no retransmission) the stalled
  // frame's data never arrives, so the stall runs to max_stall and the
  // frame is abandoned — but only the affected frames, and playback ends
  // later than the nominal clip length.
  PathConfig lossy = fast_path();
  lossy.loss_probability = 0.02;
  lossy.seed = 3;
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 150, 15);

  auto drop = rebuffer_session(clip, lossy, false);
  drop.run();
  auto stall = rebuffer_session(clip, lossy, true);
  stall.run(Duration::seconds(300));

  ASSERT_GT(drop.client->stats().frames_dropped, 0u);  // loss actually happened
  EXPECT_GT(stall.client->stats().rebuffer_events, 0u);
  EXPECT_GT(stall.client->stats().stall_time, Duration::zero());
  // Playback end shifted by at least the stall time.
  ASSERT_TRUE(stall.client->playback_end_time().has_value());
  ASSERT_TRUE(drop.client->playback_end_time().has_value());
  EXPECT_GT(*stall.client->playback_end_time(), *drop.client->playback_end_time());
}

TEST(Rebuffering, FrameEventsStayOrderedAndComplete) {
  PathConfig lossy = fast_path();
  lossy.loss_probability = 0.01;
  lossy.seed = 9;
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 100, 12);
  auto s = rebuffer_session(clip, lossy, true);
  s.run(Duration::seconds(300));

  ASSERT_TRUE(s.client->stats().completed);
  const auto& events = s.client->frame_events();
  ASSERT_EQ(events.size(), s.encoded.frames().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].frame_index, i);
    if (i > 0) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
  }
  EXPECT_EQ(s.client->stats().frames_rendered + s.client->stats().frames_dropped, events.size());
}

TEST(Rebuffering, MaxStallBoundsSingleWait) {
  PathConfig lossy = fast_path();
  lossy.loss_probability = 0.02;
  lossy.seed = 5;
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 100, 10);
  auto s = rebuffer_session(clip, lossy, true);
  s.run(Duration::seconds(600));
  ASSERT_TRUE(s.client->stats().completed);
  // Total stall is bounded by events x max_stall.
  const double bound =
      static_cast<double>(s.client->stats().rebuffer_events + s.client->stats().frames_dropped) *
      10.0;
  EXPECT_LE(s.client->stats().stall_time.to_seconds(), bound + 1.0);
}

}  // namespace
}  // namespace streamlab
