// Shared cached study for integration tests: data sets 1 (230 s clips,
// low+high tiers) and 6 (147 s clips, low+high+very-high tiers) span the
// full encoding-rate range of Table 1 while keeping the suite fast.
#pragma once

#include "core/study.hpp"

namespace streamlab::testutil {

inline const StudyResults& study() {
  static const StudyResults cached = [] {
    StudyConfig config;
    config.seed = kPaperSeed;
    return run_study_subset(config, {1, 6});
  }();
  return cached;
}

inline const ClipRunResult& clip_result(const std::string& id) {
  if (const auto* c = study().find(id)) return *c;
  static const ClipRunResult empty{};
  return empty;
}

}  // namespace streamlab::testutil
