#include "media/catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace streamlab {
namespace {

TEST(Catalog, SixSetsTwentySixClips) {
  const auto& catalog = table1_catalog();
  ASSERT_EQ(catalog.size(), 6u);
  EXPECT_EQ(all_clips().size(), 26u);  // 5 sets x 4 + set 6 with 6
}

TEST(Catalog, Table1RatesExact) {
  // Spot-check the exact Kbps values of Table 1.
  const auto s1h = table1_catalog()[0].pair(RateTier::kHigh);
  ASSERT_TRUE(s1h.has_value());
  EXPECT_EQ(s1h->first.encoded_rate, BitRate::kbps(284.0));    // R-h
  EXPECT_EQ(s1h->second.encoded_rate, BitRate::kbps(323.1));   // M-h

  const auto s4l = table1_catalog()[3].pair(RateTier::kLow);
  ASSERT_TRUE(s4l.has_value());
  EXPECT_EQ(s4l->first.encoded_rate, BitRate::kbps(26.0));
  EXPECT_EQ(s4l->second.encoded_rate, BitRate::kbps(49.6));

  const auto s6v = table1_catalog()[5].pair(RateTier::kVeryHigh);
  ASSERT_TRUE(s6v.has_value());
  EXPECT_EQ(s6v->first.encoded_rate, BitRate::kbps(636.9));
  EXPECT_EQ(s6v->second.encoded_rate, BitRate::kbps(731.3));
}

TEST(Catalog, OnlySetSixHasVeryHigh) {
  for (const auto& set : table1_catalog()) {
    const bool has_vh = set.pair(RateTier::kVeryHigh).has_value();
    EXPECT_EQ(has_vh, set.id == 6) << "set " << set.id;
    EXPECT_TRUE(set.pair(RateTier::kLow).has_value()) << "set " << set.id;
    EXPECT_TRUE(set.pair(RateTier::kHigh).has_value()) << "set " << set.id;
  }
}

TEST(Catalog, RealAlwaysEncodedBelowMediaAtSameTier) {
  // Section 3.B: "for the same advertised data rate, the RealPlayer clips
  // always have a lower encoding rate than the corresponding MediaPlayer
  // clip."
  for (const auto& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh}) {
      const auto pair = set.pair(tier);
      if (!pair) continue;
      EXPECT_LT(pair->first.encoded_rate, pair->second.encoded_rate)
          << "set " << set.id << " tier " << to_string(tier);
    }
  }
}

TEST(Catalog, ClipLengthsInStudyRange) {
  // "The length of the clips should be between 30 seconds and 5 minutes."
  for (const auto& clip : all_clips()) {
    EXPECT_GE(clip.length, Duration::seconds(30)) << clip.id();
    EXPECT_LE(clip.length, Duration::seconds(300)) << clip.id();
  }
}

TEST(Catalog, PairSharesContentAndLength) {
  for (const auto& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh}) {
      const auto pair = set.pair(tier);
      if (!pair) continue;
      EXPECT_EQ(pair->first.content, pair->second.content);
      EXPECT_EQ(pair->first.length, pair->second.length);
      EXPECT_EQ(pair->first.advertised_rate, pair->second.advertised_rate);
      EXPECT_EQ(pair->first.player, PlayerKind::kRealPlayer);
      EXPECT_EQ(pair->second.player, PlayerKind::kMediaPlayer);
    }
  }
}

TEST(Catalog, IdsUniqueAndFindable) {
  std::set<std::string> ids;
  for (const auto& clip : all_clips()) {
    EXPECT_TRUE(ids.insert(clip.id()).second) << "duplicate " << clip.id();
    const auto found = find_clip(clip.id());
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->encoded_rate, clip.encoded_rate);
  }
  EXPECT_FALSE(find_clip("set9/R-l").has_value());
  EXPECT_FALSE(find_clip("").has_value());
}

TEST(Catalog, TierLabels) {
  EXPECT_EQ(tier_label(PlayerKind::kRealPlayer, RateTier::kHigh), "R-h");
  EXPECT_EQ(tier_label(PlayerKind::kMediaPlayer, RateTier::kVeryHigh), "M-v");
  EXPECT_EQ(tier_label(PlayerKind::kMediaPlayer, RateTier::kLow), "M-l");
}

TEST(Catalog, ClipsForPlayerSplitsEvenly) {
  const auto clips = all_clips();
  const auto count = [&](PlayerKind player) {
    return std::count_if(clips.begin(), clips.end(),
                         [player](const ClipInfo& c) { return c.player == player; });
  };
  EXPECT_EQ(count(PlayerKind::kRealPlayer), 13);
  EXPECT_EQ(count(PlayerKind::kMediaPlayer), 13);
}

TEST(Catalog, MediaBytesMatchRateTimesLength) {
  const auto clip = *find_clip("set1/M-l");
  // 49.8 Kbps x 230 s / 8 = 1'431'750 bytes.
  EXPECT_EQ(clip.media_bytes(), 1'431'750);
}

TEST(Catalog, AdvertisedTiers) {
  for (const auto& clip : all_clips()) {
    switch (clip.tier) {
      case RateTier::kLow:
        EXPECT_EQ(clip.advertised_rate, BitRate::kbps(56));
        break;
      case RateTier::kHigh:
        EXPECT_EQ(clip.advertised_rate, BitRate::kbps(300));
        break;
      case RateTier::kVeryHigh:
        EXPECT_EQ(clip.advertised_rate, BitRate::kbps(700));
        break;
    }
  }
}

}  // namespace
}  // namespace streamlab
