// The study driver's shape: one pair run per (set, tier) of Table 1, each
// over its data set's own path.
#include "core/study.hpp"

#include <gtest/gtest.h>

#include "study_fixture.hpp"

namespace streamlab {
namespace {

TEST(Study, FullStudyRunsEveryPair) {
  const auto& s = testutil::study();
  // Six sets of low and high tiers plus set 6's very-high = 13 pair runs.
  EXPECT_EQ(s.runs.size(), 13u);
  EXPECT_EQ(s.clips().size(), 26u);
  EXPECT_EQ(s.clips_for(PlayerKind::kRealPlayer).size(), 13u);
  EXPECT_EQ(s.clips_for(PlayerKind::kMediaPlayer).size(), 13u);
}

TEST(Study, PathsDifferPerDataSet) {
  const PathConfig p1 = path_for_data_set(1, 1);
  const PathConfig p6 = path_for_data_set(6, 1);
  EXPECT_NE(p1.hop_count, p6.hop_count);
  EXPECT_LT(p1.one_way_propagation, p6.one_way_propagation);
}

}  // namespace
}  // namespace streamlab
