#include "trackers/tracker.hpp"

#include <gtest/gtest.h>

#include "../players/player_test_util.hpp"

namespace streamlab {
namespace {

using testutil::Session;
using testutil::short_clip;

struct TrackedSession : Session {
  PlayerTracker tracker;

  explicit TrackedSession(const ClipInfo& clip) : Session(clip), tracker(*client) {}

  void run_tracked() {
    client->start();
    tracker.start();
    net.loop().run_until(net.loop().now() + encoded.info().length +
                         Duration::seconds(30));
  }
};

TEST(PlayerTracker, SamplesOncePerSecond) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 100, 20));
  s.run_tracked();
  const auto& samples = s.tracker.samples();
  ASSERT_GT(samples.size(), 15u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_EQ((samples[i].time - samples[i - 1].time), Duration::seconds(1));
}

TEST(PlayerTracker, BufferingFlagDuringPreroll) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 100, 20));
  s.run_tracked();
  const auto& samples = s.tracker.samples();
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
  TrackedSession s(clip);
  s.run_tracked();
  const TrackerReport report = s.tracker.report();
  const double nominal = nominal_frame_rate(clip.player, clip.encoded_rate);
  EXPECT_NEAR(report.average_frame_rate, nominal, 1.5);
}

TEST(PlayerTracker, ReportTotalsMatchClient) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 150, 15));
  s.run_tracked();
  const TrackerReport report = s.tracker.report();
  EXPECT_EQ(report.total_packets, s.client->stats().packets_received);
  EXPECT_EQ(report.total_lost, s.client->stats().packets_lost);
  EXPECT_EQ(report.frames_rendered, s.client->stats().frames_rendered);
  EXPECT_EQ(report.frames_dropped, s.client->stats().frames_dropped);
  EXPECT_EQ(report.clip_id, s.encoded.info().id());
  EXPECT_EQ(report.player, PlayerKind::kMediaPlayer);
  EXPECT_EQ(report.encoded_rate, s.encoded.info().encoded_rate);
  EXPECT_EQ(report.transport, "UDP");
}

TEST(PlayerTracker, ReceptionQualityOnCleanPath) {
  TrackedSession s(short_clip(PlayerKind::kRealPlayer, 60, 15));
  s.run_tracked();
  EXPECT_GT(s.tracker.report().reception_quality(), 98.0);
}

TEST(PlayerTracker, StartupDelayCoversPreroll) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 100, 15));
  s.run_tracked();
  const auto report = s.tracker.report();
  EXPECT_GE(report.startup_delay, WmBehavior{}.preroll);
  EXPECT_LT(report.startup_delay, WmBehavior{}.preroll + Duration::seconds(2));
}

TEST(PlayerTracker, BandwidthSamplesTrackStreaming) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 200, 20));
  s.run_tracked();
  const auto& samples = s.tracker.samples();
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

/// A lossy session with the FEC+NACK repair layer attached to both ends, so
/// the tracker has recoveries to record.
struct RepairedTrackedSession {
  Network net;
  Host& server_host;
  EncodedClip encoded;
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<StreamClient> client;
  std::unique_ptr<PlayerTracker> tracker;

  explicit RepairedTrackedSession(const ClipInfo& clip, double loss)
      : net([&] {
          PathConfig path = testutil::fast_path();
          path.loss_probability = loss;
          return path;
        }()),
        server_host(net.add_server("srv")),
        encoded(encode_clip(clip, 7)) {
    RepairLayerConfig repair;
    repair.fec_k = 8;
    repair.fec_stride = 1;
    repair.nack = true;
    server = std::make_unique<WmServer>(server_host, encoded, WmBehavior{},
                                        kMediaServerPort);
    server->enable_repair(repair);
    StreamClient::Config cc;
    cc.kind = clip.player;
    cc.repair = repair;
    client = std::make_unique<StreamClient>(
        net.client(), server->clip(),
        Endpoint{server_host.address(), kMediaServerPort}, cc);
    tracker = std::make_unique<PlayerTracker>(*client);
  }

  void run_tracked() {
    client->start();
    tracker->start();
    net.loop().run_until(net.loop().now() + encoded.info().length +
                         Duration::seconds(30));
  }
};

TEST(PlayerTracker, RecoveredColumnTracksRepairLayer) {
  RepairedTrackedSession s(short_clip(PlayerKind::kMediaPlayer, 150, 15), 0.05);
  s.run_tracked();
  const TrackerReport report = s.tracker->report();
  EXPECT_GT(s.client->stats().packets_recovered(), 0u);
  EXPECT_EQ(report.total_recovered, s.client->stats().packets_recovered());
  // Samples accumulate monotonically up to the session total.
  std::uint64_t prev = 0;
  for (const auto& smp : s.tracker->samples()) {
    EXPECT_GE(smp.packets_recovered, prev);
    prev = smp.packets_recovered;
  }
  EXPECT_EQ(prev, report.total_recovered);
}

TEST(PlayerTracker, RecoveredColumnStaysZeroWithoutRepair) {
  TrackedSession s(short_clip(PlayerKind::kMediaPlayer, 100, 10));
  s.run_tracked();
  const TrackerReport report = s.tracker.report();
  EXPECT_EQ(report.total_recovered, 0u);
  for (const auto& smp : s.tracker.samples()) EXPECT_EQ(smp.packets_recovered, 0u);
}

}  // namespace
}  // namespace streamlab
