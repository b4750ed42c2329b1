// Acceptance tests for the fault-injection + session-recovery stack: a
// mid-stream link outage shorter than the delay buffer is survived, an
// outage longer than the inactivity window is detected by the watchdog
// (with the event loop draining, not hanging), and both runs replay
// bit-identically under the same seed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/turbulence.hpp"

namespace streamlab {
namespace {

TurbulenceScenarioConfig short_outage_config() {
  return turbulence_scenario("short-outage").config({});  // 4 s, inside the 8 s window
}

TurbulenceScenarioConfig long_outage_config() {
  return turbulence_scenario("long-outage").config({});  // 30 s, far past the 8 s window
}

const ClipSet& study_set() { return table1_catalog()[0]; }

TEST(FaultRecovery, ShortOutageSurvivedWithZeroAbandonedSessions) {
  const auto run =
      run_turbulence_pair(study_set(), RateTier::kLow, short_outage_config());

  ASSERT_TRUE(run.real.has_value());
  ASSERT_TRUE(run.media.has_value());
  EXPECT_EQ(run.sessions_abandoned(), 0);
  for (const auto* m : {&*run.real, &*run.media}) {
    EXPECT_TRUE(m->established);
    EXPECT_FALSE(m->abandoned);
    EXPECT_FALSE(m->stream_dead);
    EXPECT_TRUE(m->completed) << m->clip.id();
    // The flap really bit: packets were lost, and data flowed again after.
    EXPECT_GT(m->packets_lost, 0u);
    ASSERT_TRUE(m->time_to_recover.has_value());
    EXPECT_LT(m->time_to_recover->to_seconds(), 8.0);
  }
  ASSERT_EQ(run.episodes.size(), 1u);
  EXPECT_TRUE(run.episodes[0].applied);
  EXPECT_TRUE(run.episodes[0].cleared);
  EXPECT_GT(run.episodes[0].packets_dropped, 0u);
}

TEST(FaultRecovery, LongOutageTerminatedByWatchdogNotHang) {
  // This test completing at all is the no-hung-event-loop assertion: the
  // runner's final loop.run() only returns once every timer has drained.
  const auto run =
      run_turbulence_pair(study_set(), RateTier::kLow, long_outage_config());

  ASSERT_TRUE(run.real.has_value());
  ASSERT_TRUE(run.media.has_value());
  EXPECT_EQ(run.sessions_abandoned(), 2);
  for (const auto* m : {&*run.real, &*run.media}) {
    EXPECT_TRUE(m->established);       // the handshake had long succeeded
    EXPECT_TRUE(m->stream_dead);       // ...then the watchdog declared death
    EXPECT_FALSE(m->abandoned);        // not a handshake failure
    EXPECT_FALSE(m->completed);
    EXPECT_TRUE(m->session_failed());
    EXPECT_GT(m->frames_dropped, 0u);
  }
}

TEST(FaultRecovery, DeterministicAcrossRunsWithSameSeed) {
  const auto short_a =
      run_turbulence_pair(study_set(), RateTier::kLow, short_outage_config());
  const auto short_b =
      run_turbulence_pair(study_set(), RateTier::kLow, short_outage_config());
  ASSERT_TRUE(short_a.real && short_b.real && short_a.media && short_b.media);
  EXPECT_EQ(*short_a.real, *short_b.real);
  EXPECT_EQ(*short_a.media, *short_b.media);
  ASSERT_EQ(short_a.episodes.size(), short_b.episodes.size());
  for (std::size_t i = 0; i < short_a.episodes.size(); ++i)
    EXPECT_EQ(short_a.episodes[i].packets_dropped, short_b.episodes[i].packets_dropped);

  const auto long_a =
      run_turbulence_pair(study_set(), RateTier::kLow, long_outage_config());
  const auto long_b =
      run_turbulence_pair(study_set(), RateTier::kLow, long_outage_config());
  ASSERT_TRUE(long_a.real && long_b.real && long_a.media && long_b.media);
  EXPECT_EQ(*long_a.real, *long_b.real);
  EXPECT_EQ(*long_a.media, *long_b.media);
}

TEST(FaultRecovery, CsvExportCarriesScenarioRows) {
  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;
  runs.emplace_back("short-outage", run_turbulence_pair(study_set(), RateTier::kLow,
                                                        short_outage_config()));
  std::ostringstream csv;
  turbulence_csv(runs, csv);
  EXPECT_NE(csv.str().find("scenario,clip_id,player"), std::string::npos);
  EXPECT_NE(csv.str().find("short-outage"), std::string::npos);
  std::ostringstream episodes;
  turbulence_episodes_csv(runs, episodes);
  EXPECT_NE(episodes.str().find("short-flap"), std::string::npos);
}

}  // namespace
}  // namespace streamlab
