// Clip metadata: the workload unit of the study (Table 1).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/rate.hpp"
#include "util/time.hpp"

namespace streamlab {

/// The two commercial players the paper compares.
enum class PlayerKind { kRealPlayer, kMediaPlayer };

/// Advertised connection-speed tier of a clip ("56 Kbps modem", "300 Kbps
/// broadband", "700 Kbps"): Table 1 rows R-l/M-l, R-h/M-h, R-v/M-v.
enum class RateTier { kLow, kHigh, kVeryHigh };

enum class ContentClass { kSports, kCommercial, kMusicTv, kNews, kMovie };

std::string to_string(PlayerKind k);
std::string to_string(RateTier t);
/// Inverse of to_string(RateTier): exactly "low", "high" or "very-high".
std::optional<RateTier> parse_rate_tier(std::string_view text);
/// A Table 1 data set number: exactly one of "1".."6", no sign or spaces.
std::optional<int> parse_data_set(std::string_view text);
std::string to_string(ContentClass c);
/// Short label like "R-h" / "M-v", as Table 1 writes it.
std::string tier_label(PlayerKind k, RateTier t);

struct ClipInfo {
  int data_set = 0;  ///< 1..6
  ContentClass content = ContentClass::kSports;
  PlayerKind player = PlayerKind::kRealPlayer;
  RateTier tier = RateTier::kLow;
  BitRate encoded_rate;    ///< actual encoding rate as Table 1 reports it
  BitRate advertised_rate; ///< what the Web page link claims
  Duration length;

  /// Stable identifier, e.g. "set1/M-h".
  std::string id() const;
  /// Total media payload bytes in the encoded clip.
  std::int64_t media_bytes() const { return encoded_rate.bytes_in(length); }
  bool operator==(const ClipInfo&) const = default;
};

}  // namespace streamlab
