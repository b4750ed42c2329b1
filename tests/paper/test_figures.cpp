// Tests of the figure builders: each figure's data series has the right
// shape and internal consistency.
#include "core/figures.hpp"

#include <gtest/gtest.h>

#include "study_fixture.hpp"

namespace streamlab {
namespace {

using testutil::clip_result;
using testutil::study;

TEST(Figures, Fig1RttSamplesOnePerPing) {
  const auto rtts = figures::rtt_samples_ms(study());
  // 13 pair runs x 10 pings.
  EXPECT_EQ(rtts.size(), 130u);
  for (const double r : rtts) EXPECT_GT(r, 0.0);
}

TEST(Figures, Fig2HopCountsOnePerRun) {
  const auto hops = figures::hop_counts(study());
  EXPECT_EQ(hops.size(), 13u);
}

TEST(Figures, Fig3PointsAndTrend) {
  const auto points = figures::playback_vs_encoding(study());
  EXPECT_EQ(points.size(), 26u);

  const auto real_fit = figures::playback_trend(study(), PlayerKind::kRealPlayer);
  const auto media_fit = figures::playback_trend(study(), PlayerKind::kMediaPlayer);
  ASSERT_EQ(real_fit.coefficients.size(), 3u);
  ASSERT_EQ(media_fit.coefficients.size(), 3u);
  // The figure's claim in trend form: Real's curve sits above y=x, Media's
  // lies on it.
  for (const double x : {100.0, 300.0, 600.0}) {
    EXPECT_GT(real_fit.eval(x), x);
    EXPECT_NEAR(media_fit.eval(x), x, x * 0.1);
  }
}

TEST(Figures, Fig4ArrivalWindowReindexed) {
  const auto window =
      figures::arrival_window(clip_result("set1/M-h"), Duration::seconds(30),
                              Duration::seconds(1));
  ASSERT_GT(window.size(), 10u);  // ~30 packets/s at 323 Kbps
  EXPECT_EQ(window.front().second, 0u);
  for (std::size_t i = 1; i < window.size(); ++i) {
    EXPECT_EQ(window[i].second, window[i - 1].second + 1);
    EXPECT_GE(window[i].first, window[i - 1].first);
    EXPECT_LT(window[i].first, 1.0);
  }
}

TEST(Figures, Fig5OnePointPerClip) {
  const auto points = figures::fragmentation_vs_rate(study());
  EXPECT_EQ(points.size(), 26u);
  for (const auto& p : points) {
    if (p.player == PlayerKind::kRealPlayer) {
      EXPECT_DOUBLE_EQ(p.fragment_percent, 0.0);
    }
    EXPECT_GE(p.fragment_percent, 0.0);
    EXPECT_LE(p.fragment_percent, 100.0);
  }
}

TEST(Figures, Fig6HistogramMassSums) {
  const auto h = figures::packet_size_pdf(clip_result("set1/M-l"));
  double total = 0.0;
  for (const auto& b : h.bins()) total += b.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Figures, Fig7NormalizedSizesMeanOne) {
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto sizes = figures::normalized_packet_sizes(study(), player);
    ASSERT_GT(sizes.size(), 1000u);
    double sum = 0.0;
    for (const double s : sizes) sum += s;
    // Per-clip normalisation: the pooled mean stays near 1.
    EXPECT_NEAR(sum / static_cast<double>(sizes.size()), 1.0, 0.02);
  }
}

TEST(Figures, Fig9NormalizedIntervalsMeanOne) {
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto gaps = figures::normalized_interarrivals(study(), player);
    ASSERT_GT(gaps.size(), 500u);
    double sum = 0.0;
    for (const double g : gaps) sum += g;
    EXPECT_NEAR(sum / static_cast<double>(gaps.size()), 1.0, 0.02);
  }
}

TEST(Figures, Fig10TimelineCoversStream) {
  const auto timeline =
      figures::bandwidth_timeline(clip_result("set1/R-l"), Duration::seconds(2));
  ASSERT_GT(timeline.size(), 50u);
  // Windows advance by exactly the window size.
  for (std::size_t i = 1; i < timeline.size(); ++i)
    EXPECT_NEAR(timeline[i].first - timeline[i - 1].first, 2.0, 1e-9);
}

TEST(Figures, Fig11SortedByRate) {
  const auto points = figures::buffering_ratio_vs_rate(study());
  EXPECT_EQ(points.size(), 13u);  // RealPlayer clips only
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].encoding_kbps, points[i - 1].encoding_kbps);
}

TEST(Figures, Fig12BothLayersPresent) {
  const auto series = figures::layer_receipt_series(clip_result("set1/M-h"),
                                                    Duration::seconds(30),
                                                    Duration::seconds(4));
  ASSERT_GT(series.network.size(), 20u);
  ASSERT_GT(series.application.size(), 10u);
  // Application releases are clustered: distinct times far fewer than events.
  std::set<double> app_times;
  for (const auto& [t, _] : series.application) app_times.insert(t);
  EXPECT_LE(app_times.size(), 6u);  // ~1 batch per second over 4 s
  std::set<double> net_times;
  for (const auto& [t, _] : series.network) net_times.insert(t);
  EXPECT_GT(net_times.size(), 30u);  // ~10 groups/s x 3-packet groups
}

TEST(Figures, Fig13TimelineMatchesTrackerSamples) {
  // A clip that did not run: the empty result must be safe.
  EXPECT_TRUE(figures::framerate_timeline(ClipRunResult{}).empty());

  const auto timeline = figures::framerate_timeline(clip_result("set1/R-h"));
  EXPECT_EQ(timeline.size(), clip_result("set1/R-h").tracker.samples.size());
}

TEST(Figures, Fig14And15PointsPerClip) {
  EXPECT_EQ(figures::framerate_vs_encoding(study()).size(), 26u);
  EXPECT_EQ(figures::framerate_vs_bandwidth(study()).size(), 26u);
}

TEST(Figures, TierSummariesWithStderr) {
  const auto points = figures::framerate_vs_encoding(study());
  const auto real = figures::summarize_by_tier(points, PlayerKind::kRealPlayer);
  // Low and high tiers in all six sets, very-high in set 6 only.
  ASSERT_EQ(real.size(), 3u);
  EXPECT_EQ(real[0].tier, RateTier::kLow);
  EXPECT_EQ(real[0].count, 6u);
  EXPECT_EQ(real[1].count, 6u);
  EXPECT_EQ(real[2].tier, RateTier::kVeryHigh);
  EXPECT_EQ(real[2].count, 1u);
  // Frame rate rises with tier.
  EXPECT_LT(real[0].mean_fps, real[1].mean_fps);
  // Standard error defined (zero allowed for n=1).
  for (const auto& t : real) EXPECT_GE(t.stderr_fps, 0.0);
}

}  // namespace
}  // namespace streamlab
