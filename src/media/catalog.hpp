// The Table 1 experiment catalog: six clip sets, 26 clips, each encoded in
// both RealPlayer and MediaPlayer formats at matching advertised tiers.
#pragma once

#include <optional>
#include <vector>

#include "media/clip.hpp"

namespace streamlab {

struct ClipSet {
  int id = 0;
  ContentClass content = ContentClass::kSports;
  Duration length;
  std::vector<ClipInfo> clips;  ///< R/M pairs per tier

  /// The R/M pair at a tier, if the set has one (only set 6 has very-high).
  std::optional<std::pair<ClipInfo, ClipInfo>> pair(RateTier tier) const;
};

/// The full catalog, exactly as Table 1 lists it. Set 1's duration is not
/// legible in the published table; we use 3:50, inferred from the streaming
/// durations visible in Figure 10 (documented in EXPERIMENTS.md).
const std::vector<ClipSet>& table1_catalog();

/// Flattened view of all 26 clips.
std::vector<ClipInfo> all_clips();

/// Looks up a clip by its id() string; nullopt when unknown.
std::optional<ClipInfo> find_clip(const std::string& id);

}  // namespace streamlab
