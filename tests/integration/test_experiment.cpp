// Integration tests of the experiment runner itself: session integrity,
// determinism, and the paired-run methodology.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/study.hpp"

namespace streamlab {
namespace {

ExperimentConfig quick_config() {
  ExperimentConfig config;
  config.path = path_for_data_set(2, 99);  // 39-second clips
  config.path.loss_probability = 0.0;      // exact accounting below
  config.seed = 99;
  return config;
}

TEST(RunSingleClip, CompletesAndAccounts) {
  const auto clip = *find_clip("set2/M-l");
  const ClipRunResult r = run_single_clip(clip, quick_config());

  EXPECT_EQ(r.clip.id(), "set2/M-l");
  EXPECT_GT(r.flow.size(), 50u);
  EXPECT_GT(r.tracker.frames_rendered, 100u);
  EXPECT_EQ(r.tracker.total_lost, 0u);
  // Every wire packet accounted: the flow holds the data packets plus the
  // PLAY-OK control reply (no fragmentation at this rate).
  EXPECT_EQ(r.flow.size(), r.app_packets.size() + 1);
  EXPECT_GT(r.server_streaming_duration.to_seconds(), 30.0);
}

TEST(RunSingleClip, DeterministicInSeed) {
  const auto clip = *find_clip("set2/R-l");
  const ClipRunResult a = run_single_clip(clip, quick_config());
  const ClipRunResult b = run_single_clip(clip, quick_config());
  ASSERT_EQ(a.flow.size(), b.flow.size());
  for (std::size_t i = 0; i < a.flow.size(); ++i) {
    EXPECT_EQ(a.flow.packets()[i].time, b.flow.packets()[i].time);
    EXPECT_EQ(a.flow.packets()[i].wire_length, b.flow.packets()[i].wire_length);
  }
  EXPECT_EQ(a.tracker.frames_rendered, b.tracker.frames_rendered);
}

TEST(RunSingleClip, DifferentSeedsDiffer) {
  const auto clip = *find_clip("set2/R-l");
  ExperimentConfig c1 = quick_config();
  ExperimentConfig c2 = quick_config();
  c2.seed = 100;
  const ClipRunResult a = run_single_clip(clip, c1);
  const ClipRunResult b = run_single_clip(clip, c2);
  // RealPlayer packet sizes are stochastic: traces must differ.
  ASSERT_GT(a.flow.size(), 10u);
  bool any_diff = a.flow.size() != b.flow.size();
  for (std::size_t i = 0; !any_diff && i < std::min(a.flow.size(), b.flow.size()); ++i)
    any_diff = a.flow.packets()[i].wire_length != b.flow.packets()[i].wire_length;
  EXPECT_TRUE(any_diff);
}

TEST(RunSingleClip, KeepCaptureRetainsRawFrames) {
  ExperimentConfig config = quick_config();
  config.keep_capture = true;
  const ClipRunResult r = run_single_clip(*find_clip("set2/M-l"), config);
  ASSERT_TRUE(r.capture.has_value());
  EXPECT_EQ(r.capture->size(), r.flow.size());
}

TEST(RunClipPair, BothCompleteOverSharedPath) {
  const ClipSet& set2 = table1_catalog()[1];
  const PairRunResult r = run_clip_pair(set2, RateTier::kLow, quick_config());

  EXPECT_EQ(r.real.clip.player, PlayerKind::kRealPlayer);
  EXPECT_EQ(r.media.clip.player, PlayerKind::kMediaPlayer);
  EXPECT_GT(r.real.flow.size(), 50u);
  EXPECT_GT(r.media.flow.size(), 50u);
  EXPECT_GT(r.real.tracker.frames_rendered, 100u);
  EXPECT_GT(r.media.tracker.frames_rendered, 100u);

  // Path characterisation ran: ping RTTs and a complete route.
  EXPECT_EQ(r.ping.received, r.ping.sent);
  EXPECT_TRUE(r.route.reached);
  EXPECT_EQ(r.route.hop_count(), quick_config().path.hop_count + 1);
}

TEST(RunClipPair, FlowsSeparatedByServer) {
  const ClipSet& set2 = table1_catalog()[1];
  const PairRunResult r = run_clip_pair(set2, RateTier::kHigh, quick_config());
  // The two flows are distinct: MediaPlayer's fragments only in its flow.
  EXPECT_GT(r.media.flow.fragment_count(), 0u);
  EXPECT_EQ(r.real.flow.fragment_count(), 0u);
  // Concurrent streams overlap in time.
  const auto& rp = r.real.flow.packets();
  const auto& mp = r.media.flow.packets();
  EXPECT_LT(rp.front().time, mp.back().time);
  EXPECT_LT(mp.front().time, rp.back().time);
}

TEST(RunClipPair, MissingTierReturnsEmpty) {
  const ClipSet& set2 = table1_catalog()[1];  // no very-high tier
  const PairRunResult r = run_clip_pair(set2, RateTier::kVeryHigh, quick_config());
  EXPECT_TRUE(r.real.flow.empty());
  EXPECT_TRUE(r.media.flow.empty());
}

}  // namespace
}  // namespace streamlab
