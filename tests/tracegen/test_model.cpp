#include "tracegen/model.hpp"

#include <gtest/gtest.h>

namespace streamlab {
namespace {

/// One small data set (set 1: 230-second clips) exercises the full pipeline
/// cheaply; cached across tests in this binary.
const StudyResults& small_study() {
  static const StudyResults study = [] {
    StudyConfig config;
    config.seed = 424242;
    return run_study_subset(config, {1});
  }();
  return study;
}

TEST(FlowModel, FitsAllComponents) {
  const FlowModel model = FlowModel::fit(small_study());
  EXPECT_FALSE(model.rtt_ms.empty());
  EXPECT_FALSE(model.real.normalized_sizes.empty());
  EXPECT_FALSE(model.real.normalized_intervals.empty());
  EXPECT_FALSE(model.media.normalized_sizes.empty());
  EXPECT_FALSE(model.media.normalized_intervals.empty());
  EXPECT_EQ(model.real.player, PlayerKind::kRealPlayer);
  EXPECT_EQ(model.media.player, PlayerKind::kMediaPlayer);
}

TEST(FlowModel, NormalizedDistributionsCenterOnOne) {
  const FlowModel model = FlowModel::fit(small_study());
  // Median of a mean-normalised distribution sits near 1.
  EXPECT_NEAR(model.media.normalized_sizes.quantile(0.5), 1.0, 0.15);
  EXPECT_NEAR(model.real.normalized_sizes.quantile(0.5), 1.0, 0.3);
}

TEST(FlowModel, MediaSizesTighterThanReal) {
  // Figure 7's headline: MediaPlayer mass concentrates at 1, RealPlayer
  // spreads over ~0.6-1.8.
  const FlowModel model = FlowModel::fit(small_study());
  const double media_spread =
      model.media.normalized_sizes.quantile(0.95) - model.media.normalized_sizes.quantile(0.05);
  const double real_spread =
      model.real.normalized_sizes.quantile(0.95) - model.real.normalized_sizes.quantile(0.05);
  EXPECT_LT(media_spread, real_spread);
}

TEST(FlowModel, InterpolationClampsOutsideRange) {
  const FlowModel model = FlowModel::fit(small_study());
  // Set 1 rates span ~36..323 Kbps; queries outside clamp to the edges.
  const double lo = model.media.mean_size_at(1.0);
  const double lo_edge = model.media.mean_size_at(49.8);
  EXPECT_GT(lo, 0.0);
  EXPECT_DOUBLE_EQ(lo, lo_edge);
  const double hi = model.media.mean_size_at(10'000.0);
  const double hi_edge = model.media.mean_size_at(323.1);
  EXPECT_DOUBLE_EQ(hi, hi_edge);
}

TEST(FlowModel, FragmentFractionByRateMatchesPaperShape) {
  const FlowModel model = FlowModel::fit(small_study());
  // Set 1: M-l at 49.8 Kbps (no frames over MTU), M-h at 323.1 (fragments).
  EXPECT_LT(model.media.fragment_fraction_at(49.8), 0.05);
  EXPECT_NEAR(model.media.fragment_fraction_at(323.1), 0.66, 0.05);
  // RealPlayer never fragments at any rate.
  EXPECT_DOUBLE_EQ(model.real.fragment_fraction_at(36.0), 0.0);
  EXPECT_DOUBLE_EQ(model.real.fragment_fraction_at(284.0), 0.0);
}

TEST(FlowModel, BufferingRatioByRate) {
  const FlowModel model = FlowModel::fit(small_study());
  // Set 1 low (36 Kbps) bursts near 3x; media stays at 1 (Figure 11).
  EXPECT_GT(model.real.buffering_ratio_at(36.0), 2.4);
  EXPECT_NEAR(model.media.buffering_ratio_at(49.8), 1.0, 0.05);
  EXPECT_NEAR(model.media.buffering_ratio_at(323.1), 1.0, 0.05);
}

TEST(FlowModel, RttSamplesInPathRange) {
  const FlowModel model = FlowModel::fit(small_study());
  // Set 1's path: 12 ms one-way, so RTTs land in the tens of milliseconds.
  const double median = model.rtt_ms.quantile(0.5);
  EXPECT_GT(median, 20.0);
  EXPECT_LT(median, 60.0);
}

}  // namespace
}  // namespace streamlab
