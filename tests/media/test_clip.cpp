#include "media/clip.hpp"

#include <gtest/gtest.h>

namespace streamlab {
namespace {

TEST(ClipArgs, TierParsesEveryToStringSpelling) {
  for (const RateTier t : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh})
    EXPECT_EQ(parse_rate_tier(to_string(t)), t);
}

TEST(ClipArgs, DataSetParsesOneThroughSix) {
  EXPECT_EQ(parse_data_set("1"), 1);
  EXPECT_EQ(parse_data_set("6"), 6);
}

TEST(ClipArgs, MalformedInputIsRejected) {
  // Every entry is wrong for both parsers: out of range, trailing junk,
  // leading space or sign, wrong case, or a space for the hyphen.
  for (const char* bad : {"", "0", "7", "1x", " 1", "+1", "High", "very high"}) {
    EXPECT_FALSE(parse_data_set(bad).has_value()) << '"' << bad << '"';
    EXPECT_FALSE(parse_rate_tier(bad).has_value()) << '"' << bad << '"';
  }
  // Near misses: a misspelling, trailing whitespace, a sign, a zero pad.
  for (const char* bad : {"hgih", "low ", "very-high\n", "-1", "01"}) {
    EXPECT_FALSE(parse_data_set(bad).has_value()) << '"' << bad << '"';
    EXPECT_FALSE(parse_rate_tier(bad).has_value()) << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace streamlab
