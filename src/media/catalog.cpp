#include "media/catalog.hpp"

namespace streamlab {
namespace {

ClipInfo clip(int set, ContentClass content, Duration length, PlayerKind player,
              RateTier tier, double encoded_kbps) {
  ClipInfo c;
  c.data_set = set;
  c.content = content;
  c.player = player;
  c.tier = tier;
  c.encoded_rate = BitRate::kbps(encoded_kbps);
  switch (tier) {
    case RateTier::kLow: c.advertised_rate = BitRate::kbps(56); break;
    case RateTier::kHigh: c.advertised_rate = BitRate::kbps(300); break;
    case RateTier::kVeryHigh: c.advertised_rate = BitRate::kbps(700); break;
  }
  c.length = length;
  return c;
}

ClipSet make_set(int id, ContentClass content, Duration length,
                 std::vector<std::pair<RateTier, std::pair<double, double>>> tiers) {
  ClipSet set;
  set.id = id;
  set.content = content;
  set.length = length;
  for (const auto& [tier, rates] : tiers) {
    set.clips.push_back(clip(id, content, length, PlayerKind::kRealPlayer, tier, rates.first));
    set.clips.push_back(clip(id, content, length, PlayerKind::kMediaPlayer, tier, rates.second));
  }
  return set;
}

std::vector<ClipSet> build_catalog() {
  std::vector<ClipSet> catalog;
  // Table 1, encoded rates in Kbps as {Real, Media}. Durations mm:ss.
  catalog.push_back(make_set(1, ContentClass::kSports, Duration::seconds(230),
                             {{RateTier::kHigh, {284.0, 323.1}},
                              {RateTier::kLow, {36.0, 49.8}}}));
  catalog.push_back(make_set(2, ContentClass::kCommercial, Duration::seconds(39),
                             {{RateTier::kHigh, {268.0, 307.2}},
                              {RateTier::kLow, {84.0, 102.3}}}));
  catalog.push_back(make_set(3, ContentClass::kSports, Duration::seconds(60),
                             {{RateTier::kHigh, {284.0, 307.2}},
                              {RateTier::kLow, {36.5, 37.9}}}));
  catalog.push_back(make_set(4, ContentClass::kMusicTv, Duration::seconds(245),
                             {{RateTier::kHigh, {180.9, 309.1}},
                              {RateTier::kLow, {26.0, 49.6}}}));
  catalog.push_back(make_set(5, ContentClass::kNews, Duration::seconds(107),
                             {{RateTier::kHigh, {217.6, 250.4}},
                              {RateTier::kLow, {22.0, 39.0}}}));
  catalog.push_back(make_set(6, ContentClass::kMovie, Duration::seconds(147),
                             {{RateTier::kVeryHigh, {636.9, 731.3}},
                              {RateTier::kHigh, {271.0, 347.2}},
                              {RateTier::kLow, {38.5, 102.3}}}));
  return catalog;
}

}  // namespace

std::optional<std::pair<ClipInfo, ClipInfo>> ClipSet::pair(RateTier tier) const {
  std::optional<ClipInfo> real, media;
  for (const auto& c : clips) {
    if (c.tier != tier) continue;
    (c.player == PlayerKind::kRealPlayer ? real : media) = c;
  }
  if (!real || !media) return std::nullopt;
  return std::make_pair(*real, *media);
}

const std::vector<ClipSet>& table1_catalog() {
  static const std::vector<ClipSet> catalog = build_catalog();
  return catalog;
}

std::vector<ClipInfo> all_clips() {
  std::vector<ClipInfo> out;
  for (const auto& set : table1_catalog())
    out.insert(out.end(), set.clips.begin(), set.clips.end());
  return out;
}

std::optional<ClipInfo> find_clip(const std::string& id) {
  for (const auto& c : all_clips())
    if (c.id() == id) return c;
  return std::nullopt;
}

}  // namespace streamlab
