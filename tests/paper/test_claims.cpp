// The paper's claims (core/claims.hpp), asserted over the study
// EXPERIMENTS.md reports, and the claim table's own consistency: ids,
// outputs, and bounds that can fail.
#include "core/claims.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <string_view>

#include "reproduce.hpp"
#include "study_fixture.hpp"

namespace streamlab {
namespace {

void expect_holds(const PaperClaim& c) {
  const double value = c.measure(testutil::study());
  EXPECT_TRUE(c.bound.admits(value))
      << c.id << ": " << c.quantity << " = " << value << ", want " << c.bound.describe();
}

/// Asserts the claim rows `ids`; an id the table lacks fails.
void expect_claims_hold(std::initializer_list<std::string_view> ids) {
  const auto& claims = paper_claims();
  for (const std::string_view id : ids) {
    const auto it = std::find_if(claims.begin(), claims.end(),
                                 [&](const PaperClaim& c) { return id == c.id; });
    if (it == claims.end()) {
      ADD_FAILURE() << "no claim row " << id;
      continue;
    }
    expect_holds(*it);
  }
}

TEST(PaperClaims, EveryClaimHoldsOnThePaperStudy) {
  for (const PaperClaim& c : paper_claims()) expect_holds(c);
}

// One test per finding of Figs 1-14, named after it, asserting the rows
// that carry it (a subset of the walk above).

// ---- Section 3.A / Figures 1-2: network conditions -----------------------

TEST(PaperClaims, Fig1_RttRange) { expect_claims_hold({"fig01.rtt_min", "fig01.rtt_max"}); }

TEST(PaperClaims, Fig2_HopCounts) { expect_claims_hold({"fig02.hops_min", "fig02.hops_max"}); }

TEST(PaperClaims, NearZeroLoss) { expect_claims_hold({"fig01.loss_max"}); }

// ---- Section 3.B / Figure 3: playback vs encoding rate --------------------

TEST(PaperClaims, Fig3_MediaPlaysAtEncodingRate) { expect_claims_hold({"fig03.m_at_encoding"}); }

TEST(PaperClaims, Fig3_RealPlaysAboveEncodingRate) {
  expect_claims_hold({"fig03.r_above_encoding"});
}

// ---- Section 3.C / Figures 4-5: IP fragmentation ---------------------------

TEST(PaperClaims, Fig5_NoFragmentationBelow100Kbps) { expect_claims_hold({"fig05.below_100k"}); }

TEST(PaperClaims, Fig5_About66PercentAt300Kbps) { expect_claims_hold({"fig05.m_300k"}); }

TEST(PaperClaims, Fig5_Above80PercentAtVeryHigh) { expect_claims_hold({"fig05.m_very_high"}); }

TEST(PaperClaims, Fig5_RealPlayerNeverFragments) { expect_claims_hold({"fig05.r_none"}); }

TEST(PaperClaims, Fig4_FragmentGroupWirePattern) {
  expect_claims_hold({"fig04.m_group_packets", "fig04.m_non1514_over_allowance"});
}

// ---- Section 3.D / Figures 6-7: packet sizes -------------------------------

TEST(PaperClaims, Fig6_MediaLowRatePacketsIn800To1000) {
  expect_claims_hold({"fig06.m_800_1000"});
}

TEST(PaperClaims, Fig6_RealSizesSpreadWithoutSinglePeak) {
  expect_claims_hold({"fig06.r_no_peak", "fig06.m_peak_over_r"});
}

TEST(PaperClaims, Fig7_NormalizedSizesMediaConcentratedRealSpread) {
  expect_claims_hold({"fig07.r_spread", "fig07.r_p01", "fig07.r_p99"});
}

// ---- Section 3.E / Figure 9: interarrival times ----------------------------

TEST(PaperClaims, Fig9_MediaInterarrivalsCbrSteep) {
  expect_claims_hold({"fig09.m_samples", "fig09.m_near_one"});
}

TEST(PaperClaims, Fig9_RealInterarrivalsGradual) {
  expect_claims_hold({"fig09.r_samples", "fig09.r_below", "fig09.r_above"});
}

// ---- Section 3.F / Figures 10-11: buffering --------------------------------

TEST(PaperClaims, Fig10_MediaBuffersAtPlayoutRate) {
  expect_claims_hold({"fig10.m_no_burst", "fig11.m_exactly_one"});
}

TEST(PaperClaims, Fig10_RealStreamingDurationShorter) {
  expect_claims_hold({"fig10.r_shorter_sets16", "fig10.r_shorter_very_high"});
}

TEST(PaperClaims, Fig10_RealBurstLasts20to40Seconds) {
  expect_claims_hold({"fig10.r_burst_low", "fig10.r_burst_high"});
}

TEST(PaperClaims, Fig11_RealBufferingRatioNear3AtLowRates) { expect_claims_hold({"fig11.r_low"}); }

TEST(PaperClaims, Fig11_RealBufferingRatioNear1AtVeryHigh) {
  expect_claims_hold({"fig11.r_very_high"});
}

TEST(PaperClaims, Fig11_RatioDecreasesWithEncodingRate) { expect_claims_hold({"fig11.r_decays"}); }

// ---- Section 3.G / Figure 12: application-layer batching -------------------

TEST(PaperClaims, Fig12_NetworkSteadyAppBatched) {
  expect_claims_hold({"fig12.set1_app_packets", "fig12.set1_group_gap", "fig12.set1_batch"});
}

// ---- Section 3.H / Figures 13-14: frame rates -----------------------------

TEST(PaperClaims, Fig13_HighRateClipsReachFullMotion) {
  expect_claims_hold({"fig13.set1_r_high", "fig13.set1_m_high"});
}

TEST(PaperClaims, Fig13_MediaLowRateAround13fps) { expect_claims_hold({"fig13.set1_m_low"}); }

TEST(PaperClaims, Fig14_RealBeatsMediaAtLowRates) { expect_claims_hold({"fig14.r_leads_low"}); }

TEST(PaperClaims, Fig14_SimilarAtHighRates) { expect_claims_hold({"fig14.similar_high"}); }

TEST(PaperClaims, QualityHighOnUncongestedPaths) { expect_claims_hold({"fig14.quality"}); }

TEST(ClaimTable, IdsAreUnique) {
  std::set<std::string> seen;
  for (const PaperClaim& c : paper_claims())
    EXPECT_TRUE(seen.insert(c.id).second) << "duplicate claim id " << c.id;
}

TEST(ClaimTable, EveryRowBelongsToAReproduceOutput) {
  const auto& outputs = reproduce::outputs();
  std::ptrdiff_t last = 0;
  for (const PaperClaim& c : paper_claims()) {
    const reproduce::Output* o = reproduce::find_output(c.output);
    ASSERT_NE(o, nullptr) << c.id << " names no reproduce output " << c.output;
    EXPECT_FALSE(o->on_request) << c.id;
    EXPECT_EQ(std::string(c.id).rfind(std::string(c.output) + ".", 0), 0u) << c.id;
    EXPECT_FALSE(std::string(c.paper).empty()) << c.id;
    EXPECT_FALSE(std::string(c.quantity).empty()) << c.id;
    EXPECT_NE(c.measure, nullptr) << c.id;
    // Rows are grouped by output in registry order.
    const std::ptrdiff_t index = o - outputs.data();
    EXPECT_GE(index, last) << c.id;
    last = index;
  }
}

TEST(ClaimTable, EveryBoundEdgeCanFail) {
  // A value just outside each edge is rejected and one on the inside (the
  // edge itself when inclusive) admitted, so no row is vacuous.
  const auto step = [](double edge) { return 1e-9 * std::max(1.0, std::abs(edge)); };
  for (const PaperClaim& c : paper_claims()) {
    const ClaimBound& b = c.bound;
    ASSERT_TRUE(b.lower || b.upper) << c.id << " has no bound";
    EXPECT_FALSE(b.admits(std::numeric_limits<double>::quiet_NaN())) << c.id;
    if (b.lower) {
      const double e = b.lower->value;
      EXPECT_FALSE(b.admits(e - step(e))) << c.id << " admits below " << b.describe();
      EXPECT_EQ(b.admits(e), b.lower->inclusive) << c.id << " at " << e;
      EXPECT_TRUE(b.admits(b.lower->inclusive ? e : e + step(e)))
          << c.id << " rejects just inside " << b.describe();
    }
    if (b.upper) {
      const double e = b.upper->value;
      EXPECT_FALSE(b.admits(e + step(e))) << c.id << " admits above " << b.describe();
      EXPECT_EQ(b.admits(e), b.upper->inclusive) << c.id << " at " << e;
      EXPECT_TRUE(b.admits(b.upper->inclusive ? e : e - step(e)))
          << c.id << " rejects just inside " << b.describe();
    }
  }
}

}  // namespace
}  // namespace streamlab
