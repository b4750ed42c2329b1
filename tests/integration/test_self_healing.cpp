// Acceptance tests for the self-healing network layer (DESIGN.md §11): a
// mid-stream router failure on a path with a detour is repaired by the
// control plane (reroute within detection delay + hold-down, bounded
// rebuffer, no abort); the same failure without a detour triggers an
// ICMP/watchdog-driven failover to a mirror server that resumes at the
// current media position — and both stories replay bit-identically, with
// zero invariant violations.
#include <gtest/gtest.h>

#include <utility>

#include "core/campaign.hpp"
#include "core/turbulence.hpp"
#include "media/catalog.hpp"
#include "sim/audit.hpp"

namespace streamlab {
namespace {

const ClipSet& study_set() { return table1_catalog()[0]; }

/// Low-tier RealPlayer clip: the 3x startup burst keeps it buffered well
/// ahead of playout, the interesting subject for "completes without abort".
ClipInfo real_clip() { return study_set().pair(RateTier::kLow)->first; }

/// Low-tier MediaPlayer clip: near-CBR streaming drains its buffer inside
/// an outage, the interesting subject for stall attribution.
ClipInfo media_clip() { return study_set().pair(RateTier::kLow)->second; }

TEST(SelfHealing, RouterDownWithDetourReroutesAndCompletes) {
  audit::Auditor auditor;
  TurbulenceScenarioConfig cfg = turbulence_scenario("router-down-reroute").config({});
  cfg.auditor = &auditor;
  const auto run = run_turbulence_clip(real_clip(), cfg);

  // The repair plane withdrew the span and converged back.
  EXPECT_GE(run.reroutes, 1u);
  EXPECT_GE(run.route_restores, 1u);
  ASSERT_TRUE(run.real.has_value());
  const auto& m = *run.real;
  EXPECT_TRUE(m.completed) << m.clip.id();
  EXPECT_FALSE(m.abandoned);
  EXPECT_FALSE(m.stream_dead);
  // The detour won: the mirror stayed dormant.
  EXPECT_EQ(m.failovers, 0u);
  // Bounded rebuffer: only the media in flight during the ~300 ms detection
  // window is lost (each gap waits at most max_stall), nothing like the
  // full 10 s black hole the outage would otherwise be.
  EXPECT_LT(m.stall_time.to_seconds(), 30.0);
  EXPECT_LE(m.stall_during_router_down, m.stall_time);
  // The episode really applied and cleared.
  ASSERT_EQ(run.episodes.size(), 1u);
  EXPECT_TRUE(run.episodes[0].applied);
  EXPECT_TRUE(run.episodes[0].cleared);
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();

  // Contrast: the identical failure with the healing layer stripped out
  // kills the stream — the detour/repair pair is load-bearing.
  TurbulenceScenarioConfig broken = turbulence_scenario("router-down-reroute").config({});
  broken.path.detour.reset();
  broken.repair.reset();
  broken.mirror_server = false;
  const auto dead = run_turbulence_clip(real_clip(), broken);
  ASSERT_TRUE(dead.real.has_value());
  EXPECT_TRUE(dead.real->stream_dead);
  EXPECT_FALSE(dead.real->completed);
}

TEST(SelfHealing, RouterDownWithoutDetourFailsOverToMirror) {
  audit::Auditor auditor;
  TurbulenceScenarioConfig cfg = turbulence_scenario("router-down-failover").config({});
  cfg.auditor = &auditor;
  const auto run = run_turbulence_clip(media_clip(), cfg);

  ASSERT_TRUE(run.media.has_value());
  const auto& m = *run.media;
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_TRUE(m.completed) << m.clip.id();
  EXPECT_FALSE(m.abandoned);
  EXPECT_FALSE(m.stream_dead);
  // The failover resumed mid-clip, not from byte zero, and the withdrawn
  // boundary answered probes with Destination Unreachable along the way.
  EXPECT_GT(m.resume_offset, 0u);
  EXPECT_GT(m.icmp_unreachables, 0u);
  // Withdraw on failure, restore after the router returned.
  EXPECT_EQ(run.reroutes, 1u);
  EXPECT_EQ(run.route_restores, 1u);
  // Stall attribution: the black-holed window cost real rebuffer time.
  EXPECT_GT(m.stall_during_router_down, Duration::zero());
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
}

TEST(SelfHealing, BothChaosScenariosReplayIdentically) {
  for (const char* name : {"router-down-reroute", "router-down-failover"}) {
    auto run_once = [name] {
      audit::DeterminismProbe probe;
      TurbulenceScenarioConfig cfg = turbulence_scenario(name).config({});
      cfg.probe = &probe;
      const auto run = run_turbulence_clip(media_clip(), cfg);
      return std::make_pair(probe.digest(), run);
    };
    const auto [digest_a, run_a] = run_once();
    const auto [digest_b, run_b] = run_once();
    EXPECT_EQ(digest_a, digest_b);
    EXPECT_EQ(run_a.reroutes, run_b.reroutes);
    EXPECT_EQ(run_a.route_restores, run_b.route_restores);
    ASSERT_TRUE(run_a.media && run_b.media);
    EXPECT_EQ(*run_a.media, *run_b.media);
  }
}

TEST(SelfHealing, CampaignDigestSeparatesChaosFromBaseline) {
  // A resume manifest written under the chaos scenario must not be accepted
  // by a baseline campaign (and vice versa): the new topology/repair/mirror
  // fields all feed the config digest.
  CampaignConfig baseline;
  baseline.scenario = turbulence_base_config();
  CampaignConfig chaos = baseline;
  chaos.scenario = turbulence_scenario("router-down-reroute").config({});
  CampaignConfig chaos_failover = baseline;
  chaos_failover.scenario = turbulence_scenario("router-down-failover").config({});

  const auto d0 = campaign_config_digest(baseline);
  const auto d1 = campaign_config_digest(chaos);
  const auto d2 = campaign_config_digest(chaos_failover);
  EXPECT_NE(d0, d1);
  EXPECT_NE(d0, d2);
  EXPECT_NE(d1, d2);
}

}  // namespace
}  // namespace streamlab
