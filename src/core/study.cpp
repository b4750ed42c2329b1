#include "core/study.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/jobs.hpp"

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
  // The selected (set, tier) pairs in catalog order: pair k's result goes
  // into runs[k].
  std::vector<std::pair<const ClipSet*, RateTier>> pairs;
  for (const auto& set : table1_catalog()) {
    if (std::find(data_sets.begin(), data_sets.end(), set.id) == data_sets.end())
      continue;
    for (const RateTier tier :
         {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh})
      if (set.pair(tier)) pairs.emplace_back(&set, tier);
  }
  // Runners claim the pairs longest first, so the longest pair does not
  // start last and set the study's wall time. A pair's cost is estimated
  // from its own inputs: the hops its frames cross times the media bytes
  // its two clips send. Job j runs pair order[j], and its result still
  // goes into runs[order[j]].
  std::vector<PathConfig> paths;
  std::vector<double> cost;
  for (const auto& [set, tier] : pairs) {
    paths.push_back(path_for_data_set(set->id, config.seed));
    const auto clips = set->pair(tier);
    cost.push_back(static_cast<double>(paths.back().hop_count) *
                   static_cast<double>(clips->first.media_bytes() + clips->second.media_bytes()));
  }
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });

  StudyResults results;
  results.config = config;
  results.runs.resize(pairs.size());
  run_jobs(
      pairs.size(), /*workers=*/0,
      [&](std::size_t j, std::size_t) {
        const std::size_t k = order[j];
        const auto [set, tier] = pairs[k];
        ExperimentConfig ec;
        ec.path = paths[k];
        ec.seed = config.seed ^ (static_cast<std::uint64_t>(set->id) << 8) ^
                  static_cast<std::uint64_t>(tier);
        ec.wm = config.wm;
        ec.rm = config.rm;
        ec.bandwidth_window = config.bandwidth_window;
        ec.keep_capture = config.keep_captures;
        results.runs[k] = run_clip_pair(*set, tier, ec);
      },
      [](std::size_t) {});
  return results;
}

StudyResults run_full_study(const StudyConfig& config) {
  return run_study_subset(config, {1, 2, 3, 4, 5, 6});
}

}  // namespace streamlab
