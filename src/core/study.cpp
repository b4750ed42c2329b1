#include "core/study.hpp"

#include <algorithm>

namespace streamlab {

PathConfig path_for_data_set(int data_set, std::uint64_t seed) {
  PathConfig p;
  // Six paths spanning the paper's observed ranges: hop counts mostly 15-20
  // (Figure 2, full range 10-25) and RTTs with a ~40 ms median and a 160 ms
  // maximum (Figure 1). One-way propagation is half the target base RTT.
  struct PathShape {
    int hops;
    int one_way_ms;
    double bottleneck_mbps;
  };
  static constexpr PathShape kShapes[6] = {
      {16, 12, 10.0},  // set 1: nearby, clean path
      {15, 17, 10.0},  // set 2
      {18, 20, 10.0},  // set 3: the median path
      {19, 22, 8.0},   // set 4
      {21, 30, 6.0},   // set 5: slower regional path
      {24, 75, 4.0},   // set 6: distant server, the 160 ms RTT tail
  };
  const PathShape& shape = kShapes[std::clamp(data_set - 1, 0, 5)];
  p.hop_count = shape.hops;
  p.one_way_propagation = Duration::millis(shape.one_way_ms);
  p.bottleneck_bandwidth = BitRate::mbps(shape.bottleneck_mbps);
  p.jitter_stddev = Duration::micros(400);
  p.loss_probability = 0.0005;  // "near 0% loss ... a few packet losses"
  p.seed = seed ^ (static_cast<std::uint64_t>(data_set) * 0x9E3779B9ull);
  return p;
}

std::vector<const ClipRunResult*> StudyResults::clips() const {
  std::vector<const ClipRunResult*> out;
  for (const auto& run : runs) {
    out.push_back(&run.real);
    out.push_back(&run.media);
  }
  return out;
}

std::vector<const ClipRunResult*> StudyResults::clips_for(PlayerKind player) const {
  std::vector<const ClipRunResult*> out;
  for (const auto* c : clips())
    if (c->clip.player == player) out.push_back(c);
  return out;
}

const ClipRunResult* StudyResults::find(std::string_view id) const {
  for (const auto* c : clips())
    if (c->clip.id() == id) return c;
  return nullptr;
}

StudyResults run_study_subset(const StudyConfig& config,
                              const std::vector<int>& data_sets) {
  StudyResults results;
  results.config = config;
  for (const auto& set : table1_catalog()) {
    if (std::find(data_sets.begin(), data_sets.end(), set.id) == data_sets.end())
      continue;
    for (const RateTier tier :
         {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh}) {
      if (!set.pair(tier)) continue;
      ExperimentConfig ec;
      ec.path = path_for_data_set(set.id, config.seed);
      ec.seed = config.seed ^ (static_cast<std::uint64_t>(set.id) << 8) ^
                static_cast<std::uint64_t>(tier);
      ec.wm = config.wm;
      ec.rm = config.rm;
      ec.bandwidth_window = config.bandwidth_window;
      ec.keep_capture = config.keep_captures;
      results.runs.push_back(run_clip_pair(set, tier, ec));
    }
  }
  return results;
}

StudyResults run_full_study(const StudyConfig& config) {
  return run_study_subset(config, {1, 2, 3, 4, 5, 6});
}

}  // namespace streamlab
