// The one study every paper test reads: all six data sets at kPaperSeed,
// the study EXPERIMENTS.md reports. The suite runs in one process, so it
// is built once.
#pragma once

#include <stdexcept>
#include <string>

#include "core/study.hpp"

namespace streamlab::testutil {

inline const StudyResults& study() {
  static const StudyResults cached = [] {
    StudyConfig config;
    config.seed = kPaperSeed;
    return run_full_study(config);
  }();
  return cached;
}

/// A clip of the study; an id it lacks throws (and fails the test) rather
/// than handing back an empty result a bound could pass on.
inline const ClipRunResult& clip_result(const std::string& id) {
  if (const auto* c = study().find(id)) return *c;
  throw std::invalid_argument("no study result for clip " + id);
}

}  // namespace streamlab::testutil
