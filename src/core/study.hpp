// The full study driver: runs every clip pair of the Table 1 catalog over
// per-data-set network paths and aggregates the results all multi-clip
// figures consume.
#pragma once

#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace streamlab {

/// The seed every paper output is reproduced with: the publication month.
inline constexpr std::uint64_t kPaperSeed = 20020501;

struct StudyConfig {
  std::uint64_t seed = 2002;  ///< year of the study; any value reproduces deterministically
  WmBehavior wm;
  RmBehavior rm;
  Duration bandwidth_window = Duration::seconds(2);
  bool keep_captures = false;
};

/// Per-data-set path parameters. The paper measured six distinct Internet
/// paths with 15-25 hops and RTTs from ~20 to 160 ms (Figures 1-2); these
/// values reproduce those distributions.
PathConfig path_for_data_set(int data_set, std::uint64_t seed);

struct StudyResults {
  StudyConfig config;
  std::vector<PairRunResult> runs;  ///< one per (set, tier) in catalog order

  /// Flattened per-clip results across all runs.
  std::vector<const ClipRunResult*> clips() const;
  std::vector<const ClipRunResult*> clips_for(PlayerKind player) const;
  /// The result for clip `id` (e.g. "set5/M-h"), or nullptr if it did not run.
  const ClipRunResult* find(std::string_view id) const;
};

/// Runs all 13 clip pairs (26 clips). Deterministic in config.seed.
StudyResults run_full_study(const StudyConfig& config = {});

/// Runs a reduced study (the given data sets only) — used by tests to keep
/// runtimes short while exercising the identical pipeline.
StudyResults run_study_subset(const StudyConfig& config, const std::vector<int>& data_sets);

}  // namespace streamlab
