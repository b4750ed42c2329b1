#include "core/study.hpp"

#include <gtest/gtest.h>

#include "media/catalog.hpp"

namespace streamlab {
namespace {

// A study holding one pair's clip identities; find() only reads those, so no
// simulation has to run.
StudyResults set1_low_study() {
  const auto pair = table1_catalog()[0].pair(RateTier::kLow);
  StudyResults study;
  study.runs.emplace_back();
  study.runs.back().real.clip = pair->first;
  study.runs.back().media.clip = pair->second;
  return study;
}

TEST(StudyFind, KnownIdReturnsThatClip) {
  const StudyResults study = set1_low_study();
  EXPECT_EQ(study.find("set1/R-l"), &study.runs[0].real);
  EXPECT_EQ(study.find("set1/M-l"), &study.runs[0].media);
}

TEST(StudyFind, AbsentIdReturnsNull) {
  const StudyResults study = set1_low_study();
  EXPECT_EQ(study.find("set5/R-h"), nullptr);  // in the catalog, not in this study
  EXPECT_EQ(study.find("set1/M-x"), nullptr);
  EXPECT_EQ(study.find(""), nullptr);
  EXPECT_EQ(StudyResults{}.find("set1/R-l"), nullptr);
}

}  // namespace
}  // namespace streamlab
