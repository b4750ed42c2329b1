#include "media/clip.hpp"

namespace streamlab {

std::string to_string(PlayerKind k) {
  return k == PlayerKind::kRealPlayer ? "RealPlayer" : "MediaPlayer";
}

std::string to_string(RateTier t) {
  switch (t) {
    case RateTier::kLow: return "low";
    case RateTier::kHigh: return "high";
    case RateTier::kVeryHigh: return "very-high";
  }
  return "?";
}

std::optional<RateTier> parse_rate_tier(std::string_view text) {
  for (const RateTier t : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh})
    if (text == to_string(t)) return t;
  return std::nullopt;
}

std::optional<int> parse_data_set(std::string_view text) {
  if (text.size() != 1 || text[0] < '1' || text[0] > '6') return std::nullopt;
  return text[0] - '0';
}

std::string to_string(ContentClass c) {
  switch (c) {
    case ContentClass::kSports: return "Sports";
    case ContentClass::kCommercial: return "Commercial";
    case ContentClass::kMusicTv: return "Music TV";
    case ContentClass::kNews: return "News";
    case ContentClass::kMovie: return "Movie clip";
  }
  return "?";
}

std::string tier_label(PlayerKind k, RateTier t) {
  std::string out(k == PlayerKind::kRealPlayer ? "R-" : "M-");
  switch (t) {
    case RateTier::kLow: out += 'l'; break;
    case RateTier::kHigh: out += 'h'; break;
    case RateTier::kVeryHigh: out += 'v'; break;
  }
  return out;
}

std::string ClipInfo::id() const {
  return "set" + std::to_string(data_set) + "/" + tier_label(player, tier);
}

}  // namespace streamlab
