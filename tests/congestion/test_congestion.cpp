// Tests of the bandwidth-constrained extension: the fragmentation goodput
// hazard of Section 3.C, measured.
#include "congestion/experiment.hpp"

#include <gtest/gtest.h>

#include "players/server.hpp"

namespace streamlab {
namespace {

ClipInfo test_clip(PlayerKind player, double kbps, int seconds = 40) {
  ClipInfo c;
  c.data_set = 2;
  c.content = ContentClass::kCommercial;
  c.player = player;
  c.tier = RateTier::kHigh;
  c.encoded_rate = BitRate::kbps(kbps);
  c.advertised_rate = BitRate::kbps(300);
  c.length = Duration::seconds(seconds);
  return c;
}

CongestionConfig config_with(double bottleneck_kbps) {
  CongestionConfig config;
  config.bottleneck = BitRate::kbps(bottleneck_kbps);
  config.seed = 7;
  return config;
}

TEST(Congestion, UnconstrainedPathIsClean) {
  // Bottleneck well above the encoding rate: no loss, no waste.
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto r = run_congestion_experiment(test_clip(player, 300), config_with(2000));
    EXPECT_LT(r.packet_loss, 0.01) << to_string(player);
    EXPECT_GT(r.reception_quality, 95.0) << to_string(player);
    EXPECT_GT(r.goodput_efficiency(), 0.9) << to_string(player);
    EXPECT_LT(r.offered_load, 1.0);
  }
}

TEST(Congestion, OverloadCausesLoss) {
  // Bottleneck at 60% of the encoding rate: the drop-tail queue must shed.
  const auto r =
      run_congestion_experiment(test_clip(PlayerKind::kMediaPlayer, 300), config_with(180));
  EXPECT_GT(r.offered_load, 1.5);
  EXPECT_GT(r.packet_loss, 0.1);
  EXPECT_LT(r.reception_quality, 90.0);
}

TEST(Congestion, FragmentedFlowWastesBandwidth) {
  // Section 3.C: losing one fragment discards the whole application frame,
  // so the surviving fragments of that frame are pure waste. A fragmenting
  // MediaPlayer flow under overload must show nonzero waste.
  const auto r =
      run_congestion_experiment(test_clip(PlayerKind::kMediaPlayer, 300), config_with(200));
  EXPECT_GT(r.wasted_kbps, 5.0);
  EXPECT_LT(r.goodput_efficiency(), 0.9);
}

TEST(Congestion, RealPlayerDegradesMoreGracefully) {
  // Same content, same constrained bottleneck: the never-fragmenting
  // RealPlayer flow converts more of its delivered bytes into goodput than
  // the fragmenting MediaPlayer flow — the paper's collapse warning.
  const auto media =
      run_congestion_experiment(test_clip(PlayerKind::kMediaPlayer, 300), config_with(220));
  const auto real =
      run_congestion_experiment(test_clip(PlayerKind::kRealPlayer, 300), config_with(220));
  EXPECT_GT(real.goodput_efficiency(), media.goodput_efficiency() + 0.05);
}

TEST(Congestion, ThroughputBoundedByBottleneck) {
  const auto r =
      run_congestion_experiment(test_clip(PlayerKind::kMediaPlayer, 300), config_with(150));
  // Delivered wire rate cannot exceed the constrained link (small slack for
  // windowed measurement).
  EXPECT_LT(r.throughput_kbps, 150.0 * 1.1);
  EXPECT_GT(r.throughput_kbps, 100.0);  // and the link does carry traffic
}

TEST(Congestion, SweepMonotoneQuality) {
  // Reception quality improves as the bottleneck widens.
  const auto sweep = sweep_bottleneck(test_clip(PlayerKind::kMediaPlayer, 300),
                                      {150, 300, 600}, config_with(0));
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].reception_quality, sweep[2].reception_quality);
  EXPECT_GT(sweep[0].packet_loss, sweep[2].packet_loss);
}

TEST(Congestion, SweepEqualsSerialLoop) {
  // The sweep runs its points side by side on the job pool; each result is
  // the serial run_congestion_experiment's, field for field, in input order.
  const ClipInfo clip = test_clip(PlayerKind::kRealPlayer, 300, 20);
  const std::vector<double> kbps = {150, 250, 400, 1000};
  const CongestionConfig config = config_with(0);
  const auto sweep = sweep_bottleneck(clip, kbps, config);
  ASSERT_EQ(sweep.size(), kbps.size());
  for (std::size_t i = 0; i < kbps.size(); ++i) {
    CongestionConfig point = config;
    point.bottleneck = BitRate::kbps(kbps[i]);
    const CongestionResult serial = run_congestion_experiment(clip, point);
    const CongestionResult& r = sweep[i];
    EXPECT_EQ(r.clip, serial.clip) << i;
    EXPECT_EQ(r.bottleneck, serial.bottleneck) << i;
    EXPECT_EQ(r.offered_load, serial.offered_load) << i;
    EXPECT_EQ(r.packet_loss, serial.packet_loss) << i;
    EXPECT_EQ(r.throughput_kbps, serial.throughput_kbps) << i;
    EXPECT_EQ(r.goodput_kbps, serial.goodput_kbps) << i;
    EXPECT_EQ(r.wasted_kbps, serial.wasted_kbps) << i;
    EXPECT_EQ(r.reception_quality, serial.reception_quality) << i;
  }
}

TEST(CongestionWithScaling, ScalingRecoversQuality) {
  // The Section VI adaptation: with media scaling enabled, the server thins
  // frames until the stream fits the bottleneck; rendered quality of the
  // *sent* frames recovers even though fewer frames are shown.
  const ClipInfo clip = test_clip(PlayerKind::kMediaPlayer, 300, 60);

  CongestionConfig config = config_with(200);

  // Baseline: no adaptation.
  const auto baseline = run_congestion_experiment(clip, config);

  // Adaptive run, assembled manually to flip scaling on.
  PathConfig path;
  path.hop_count = config.hop_count;
  path.one_way_propagation = config.one_way_propagation;
  path.bottleneck_bandwidth = config.bottleneck;
  path.queue_limit_bytes = config.queue_limit_bytes;
  path.loss_probability = 0.0;
  path.seed = config.seed;

  Network net(path);
  Host& server_host = net.add_server("server");
  const EncodedClip encoded = encode_clip(clip, config.seed);
  WmServer server(server_host, encoded, config.wm, kMediaServerPort);

  MediaScalingPolicy policy;
  policy.enabled = true;
  server.enable_scaling(policy);

  StreamClient::Config cc;
  cc.kind = clip.player;
  cc.scaling = policy;
  StreamClient client(net.client(), server.clip(),
                      Endpoint{server_host.address(), kMediaServerPort}, cc);
  client.start();
  net.loop().run_until(net.loop().now() + clip.length * 2 + Duration::seconds(60));

  // The server actually adapted.
  EXPECT_GT(server.scaling_level_changes(), 0u);
  EXPECT_LT(server.scaling_keep_fraction(), 1.0);
  EXPECT_GT(server.frames_thinned(), 0u);
  EXPECT_GT(client.receiver_reports_sent(), 5u);

  // Of the frames the server chose to send, far more arrive on time than in
  // the unadapted overload run. Sent frames = total - thinned.
  const double sent_frames =
      static_cast<double>(encoded.frames().size()) - server.frames_thinned();
  const double rendered = client.stats().frames_rendered;
  const double adaptive_quality = 100.0 * rendered / sent_frames;
  EXPECT_GT(adaptive_quality, baseline.reception_quality + 10.0);
}

}  // namespace
}  // namespace streamlab
