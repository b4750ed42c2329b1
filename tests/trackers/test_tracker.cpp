#include "trackers/tracker.hpp"

#include <gtest/gtest.h>

#include "../players/player_test_util.hpp"
#include "core/rig.hpp"

namespace streamlab {
namespace {

using testutil::short_clip;

/// Streams `clip` over the fast test path with a tracker on its player, to
/// the clip's end plus 30 s; `repair` runs at both ends.
std::unique_ptr<SessionRig> tracked_run(const ClipInfo& clip, double loss = 0.0,
                                        const RepairLayerConfig& repair = {}) {
  SessionRig::Config rc;
  rc.path = testutil::fast_path();
  rc.path.loss_probability = loss;
  rc.seed = 7;
  rc.sessions.push_back({clip, "srv", 7});
  rc.player.repair = repair;
  rc.trackers = true;
  auto rig = std::make_unique<SessionRig>(rc);
  rig->start();
  EventLoop& loop = rig->network().loop();
  loop.run_until(loop.now() + clip.length + Duration::seconds(30));
  return rig;
}

TEST(PlayerTracker, SamplesOncePerSecond) {
  const auto rig = tracked_run(short_clip(PlayerKind::kMediaPlayer, 100, 20));
  const auto& samples = rig->tracker(0).samples();
  ASSERT_GT(samples.size(), 15u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_EQ((samples[i].time - samples[i - 1].time), Duration::seconds(1));
}

TEST(PlayerTracker, BufferingFlagDuringPreroll) {
  const auto rig = tracked_run(short_clip(PlayerKind::kMediaPlayer, 100, 20));
  const auto& samples = rig->tracker(0).samples();
  // First few samples are in the 5 s WM preroll; later ones are playing.
  EXPECT_TRUE(samples.front().buffering);
  EXPECT_FALSE(samples.back().buffering);
  // Buffering is a prefix: once playing, never buffering again on a clean path.
  bool playing = false;
  for (const auto& smp : samples) {
    if (!smp.buffering) playing = true;
    if (playing) {
      EXPECT_FALSE(smp.buffering);
    }
  }
}

TEST(PlayerTracker, FrameRateReflectsNominalRate) {
  const auto clip = short_clip(PlayerKind::kRealPlayer, 100, 20);
  const TrackerReport report = tracked_run(clip)->tracker(0).report();
  const double nominal = nominal_frame_rate(clip.player, clip.encoded_rate);
  EXPECT_NEAR(report.average_frame_rate, nominal, 1.5);
}

TEST(PlayerTracker, ReportTotalsMatchClient) {
  const auto clip = short_clip(PlayerKind::kMediaPlayer, 150, 15);
  const auto rig = tracked_run(clip);
  const TrackerReport report = rig->tracker(0).report();
  const StreamClient::Stats stats = rig->client(0).stats();
  EXPECT_EQ(report.total_packets, stats.packets_received);
  EXPECT_EQ(report.total_lost, stats.packets_lost);
  EXPECT_EQ(report.frames_rendered, stats.frames_rendered);
  EXPECT_EQ(report.frames_dropped, stats.frames_dropped);
  EXPECT_EQ(report.clip_id, clip.id());
  EXPECT_EQ(report.player, PlayerKind::kMediaPlayer);
  EXPECT_EQ(report.encoded_rate, clip.encoded_rate);
  EXPECT_EQ(report.transport, "UDP");
}

TEST(PlayerTracker, ReceptionQualityOnCleanPath) {
  const auto rig = tracked_run(short_clip(PlayerKind::kRealPlayer, 60, 15));
  EXPECT_GT(rig->tracker(0).report().reception_quality(), 98.0);
}

TEST(PlayerTracker, StartupDelayCoversPreroll) {
  const auto report =
      tracked_run(short_clip(PlayerKind::kMediaPlayer, 100, 15))->tracker(0).report();
  EXPECT_GE(report.startup_delay, WmBehavior{}.preroll);
  EXPECT_LT(report.startup_delay, WmBehavior{}.preroll + Duration::seconds(2));
}

TEST(PlayerTracker, BandwidthSamplesTrackStreaming) {
  const auto rig = tracked_run(short_clip(PlayerKind::kMediaPlayer, 200, 20));
  const auto& samples = rig->tracker(0).samples();
  // Mid-stream samples show ~200 Kbps; after streaming ends they drop to 0.
  double mid = 0.0;
  int mid_n = 0;
  for (std::size_t i = 2; i < samples.size() && i < 15; ++i) {
    mid += samples[i].playback_bandwidth.to_kbps();
    ++mid_n;
  }
  ASSERT_GT(mid_n, 0);
  EXPECT_NEAR(mid / mid_n, 200.0, 25.0);
  EXPECT_LT(samples.back().playback_bandwidth.to_kbps(), 10.0);
}

// --- reception_quality() boundary semantics ---

TEST(TrackerReport, ReceptionQualityZeroFramesIsZeroNotNan) {
  TrackerReport r;
  EXPECT_EQ(r.reception_quality(), 0.0);
}

TEST(TrackerReport, ReceptionQualityAllDroppedIsExactlyZero) {
  TrackerReport r;
  r.frames_dropped = 1234;
  EXPECT_EQ(r.reception_quality(), 0.0);
  r.frames_rendered = 1234;
  r.frames_dropped = 0;
  EXPECT_EQ(r.reception_quality(), 100.0);
}

TEST(TrackerReport, ReceptionQualitySumsInWideIntegerSpace) {
  // rendered + dropped would wrap a 32-bit sum (8e9 > 2^32); the 64-bit
  // widened total must yield exactly 50%.
  TrackerReport r;
  r.frames_rendered = 4'000'000'000u;
  r.frames_dropped = 4'000'000'000u;
  EXPECT_EQ(r.reception_quality(), 50.0);
}

// --- recovered-packet column ---

TEST(PlayerTracker, RecoveredColumnTracksRepairLayer) {
  RepairLayerConfig repair;
  repair.fec_k = 8;
  repair.fec_stride = 1;
  repair.nack = true;
  const auto rig = tracked_run(short_clip(PlayerKind::kMediaPlayer, 150, 15), 0.05, repair);
  const TrackerReport report = rig->tracker(0).report();
  EXPECT_GT(rig->client(0).stats().packets_recovered(), 0u);
  EXPECT_EQ(report.total_recovered, rig->client(0).stats().packets_recovered());
  // Samples accumulate monotonically up to the session total.
  std::uint64_t prev = 0;
  for (const auto& smp : rig->tracker(0).samples()) {
    EXPECT_GE(smp.packets_recovered, prev);
    prev = smp.packets_recovered;
  }
  EXPECT_EQ(prev, report.total_recovered);
}

TEST(PlayerTracker, RecoveredColumnStaysZeroWithoutRepair) {
  const auto rig = tracked_run(short_clip(PlayerKind::kMediaPlayer, 100, 10));
  const TrackerReport report = rig->tracker(0).report();
  EXPECT_EQ(report.total_recovered, 0u);
  for (const auto& smp : rig->tracker(0).samples()) EXPECT_EQ(smp.packets_recovered, 0u);
}

}  // namespace
}  // namespace streamlab
