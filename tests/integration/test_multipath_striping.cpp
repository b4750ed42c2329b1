// Acceptance tests for multipath striping over the detour topology
// (DESIGN.md §16): under an identical schedule of repeated primary-span
// router flaps, the striped session rides out every flap on the surviving
// subflow — zero mirror failovers, strictly lower rebuffer ratio — while the
// spare-only single-path baseline burns a failover per flap. Plus the
// determinism story: bit-identical replays, campaign config digests that
// separate multipath variants, and manifests that are byte-identical serial
// vs 4 workers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/turbulence.hpp"
#include "media/catalog.hpp"
#include "sim/audit.hpp"

namespace streamlab {
namespace {

const ClipSet& study_set() { return table1_catalog()[0]; }

ClipInfo real_clip() { return study_set().pair(RateTier::kLow)->first; }
ClipInfo media_clip() { return study_set().pair(RateTier::kLow)->second; }

TurbulenceScenarioConfig base_config() {
  // Both subjects get the same NACK repair plane. The striped session can
  // actually use it during a flap (requests and retransmits ride the
  // surviving subflow); the single-path baseline cannot — its only route is
  // the black hole — which is exactly the asymmetry under test.
  RepairLayerConfig repair;
  repair.nack = true;
  return turbulence_base_config(repair);
}

/// The shared flap schedule: the span-[3,4] boundary router dies twice for
/// 10 s each — longer than the 8 s inactivity watchdog, so a single-path
/// client that cannot route around it must fail over every time.
void add_flap_schedule(TurbulenceScenarioConfig& cfg) {
  cfg.episodes.push_back(router_down_episode(3, 25.0, 10.0));
  cfg.episodes.push_back(router_down_episode(3, 45.0, 10.0));
}

/// Striped subject: detour bridges [3,4], the repair plane heals the primary
/// span, and the multipath layer stripes 2:1 across primary and detour. The
/// mirror stays armed only to prove it is never needed.
TurbulenceScenarioConfig multipath_config() {
  TurbulenceScenarioConfig cfg = base_config();
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.mirror_server = true;
  cfg.multipath.enabled = true;
  add_flap_schedule(cfg);
  return cfg;
}

/// Spare-only baseline: same flaps, no detour to stripe over or reroute
/// onto — just the mirror and the watchdog. Survival means failover churn.
TurbulenceScenarioConfig spare_only_config() {
  TurbulenceScenarioConfig cfg = base_config();
  cfg.repair = RouteRepairConfig{};
  cfg.repair_span_first = 3;
  cfg.repair_span_last = 4;
  cfg.mirror_server = true;
  cfg.recovery.max_play_attempts = 32;  // survive the attempt churn per flap
  add_flap_schedule(cfg);
  return cfg;
}

TEST(MultipathStriping, SurvivesFlapsThatForceTheBaselineToFailOver) {
  audit::Auditor auditor;
  TurbulenceScenarioConfig striped_cfg = multipath_config();
  striped_cfg.auditor = &auditor;
  const auto striped = run_turbulence_clip(media_clip(), striped_cfg);
  const auto baseline = run_turbulence_clip(media_clip(), spare_only_config());

  ASSERT_TRUE(striped.media.has_value());
  ASSERT_TRUE(baseline.media.has_value());
  const auto& mp = *striped.media;
  const auto& sp = *baseline.media;

  // The striped session rides out both flaps in place: no mirror failover,
  // no stream death, clip completes.
  EXPECT_TRUE(mp.completed) << mp.clip.id();
  EXPECT_FALSE(mp.stream_dead);
  EXPECT_FALSE(mp.abandoned);
  EXPECT_EQ(mp.failovers, 0u);
  EXPECT_FALSE(mp.multipath_degraded);
  // Both subflows carried real media: this was a stripe, not a failover.
  EXPECT_GT(mp.subflow[0].packets, 0u);
  EXPECT_GT(mp.subflow[1].packets, 0u);
  EXPECT_GT(mp.goodput_kbps(0), 0.0);
  EXPECT_GT(mp.goodput_kbps(1), 0.0);

  // The spare-only baseline can only respond to each flap by failing over;
  // flap 1 burns its single mirror and flap 2 trips the watchdog with no
  // spare left — the stream dies where the stripe rode both flaps out.
  EXPECT_GE(sp.failovers, 1u);
  EXPECT_TRUE(sp.stream_dead);
  EXPECT_FALSE(sp.completed);

  // The headline acceptance: striping strictly beats single-path rebuffer
  // under the identical flap schedule.
  EXPECT_LT(mp.rebuffer_ratio(), sp.rebuffer_ratio())
      << "striped stall " << mp.stall_time.to_seconds() << "s vs baseline "
      << sp.stall_time.to_seconds() << "s";

  // Both flaps applied and cleared, and no invariant tripped.
  ASSERT_EQ(striped.episodes.size(), 2u);
  for (const auto& ep : striped.episodes) {
    EXPECT_TRUE(ep.applied);
    EXPECT_TRUE(ep.cleared);
  }
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
}

TEST(MultipathStriping, AttributesStallsAndLossPerPath) {
  const auto run = run_turbulence_clip(media_clip(), multipath_config());
  ASSERT_TRUE(run.media.has_value());
  const auto& m = *run.media;
  // The flapped boundary router sits on the *primary* span; the repair plane
  // heals it within the detection window, but whatever loss and stall the
  // flaps do cost must be pinned on the primary subflow, not smeared.
  EXPECT_GE(m.subflow[0].lost, m.subflow[1].lost);
  EXPECT_LE(m.subflow[0].loss_ratio(), 1.0);
  EXPECT_LE(m.subflow[1].loss_ratio(), 1.0);
  // Stall attribution is conserved: every attributed stall names a path.
  EXPECT_LE(m.subflow[0].stalls + m.subflow[1].stalls, m.rebuffer_events + 1u);
  // The join buffer saw cross-path reordering but stayed bounded.
  EXPECT_LE(m.reorder_depth_p95, 256u);
}

TEST(MultipathStriping, ReplaysBitIdentically) {
  auto run_once = [] {
    audit::DeterminismProbe probe;
    TurbulenceScenarioConfig cfg = multipath_config();
    cfg.probe = &probe;
    const auto run = run_turbulence_clip(media_clip(), cfg);
    return std::make_pair(probe.digest(), run);
  };
  const auto [digest_a, run_a] = run_once();
  const auto [digest_b, run_b] = run_once();
  EXPECT_EQ(digest_a, digest_b);
  ASSERT_TRUE(run_a.media && run_b.media);
  EXPECT_EQ(*run_a.media, *run_b.media);
}

TEST(MultipathStriping, CampaignDigestSeparatesMultipathVariants) {
  CampaignConfig plain;
  plain.scenario = base_config();
  CampaignConfig striped = plain;
  striped.scenario = multipath_config();
  CampaignConfig reweighted = striped;
  reweighted.scenario.multipath.primary_weight = 3;
  CampaignConfig tolerant = striped;
  tolerant.scenario.multipath.nack_reorder_tolerance = 5;

  const auto d_plain = campaign_config_digest(plain);
  const auto d_striped = campaign_config_digest(striped);
  const auto d_reweighted = campaign_config_digest(reweighted);
  const auto d_tolerant = campaign_config_digest(tolerant);
  EXPECT_NE(d_plain, d_striped);
  EXPECT_NE(d_striped, d_reweighted);
  EXPECT_NE(d_striped, d_tolerant);
  EXPECT_NE(d_reweighted, d_tolerant);
}

std::string temp_manifest(const char* name) {
  std::string path = ::testing::TempDir() + "multipath_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

CampaignConfig multipath_campaign(std::size_t workers, const char* name) {
  CampaignConfig cfg;
  cfg.scenario = multipath_config();
  cfg.clip = real_clip();
  cfg.trials = 4;
  cfg.workers = workers;
  cfg.manifest_path = temp_manifest(name);
  return cfg;
}

TEST(MultipathStriping, ManifestBytesIdenticalSerialVsWorkers) {
  CampaignConfig serial_cfg = multipath_campaign(1, "serial");
  const CampaignResult serial = run_campaign(serial_cfg);
  ASSERT_EQ(serial.completed, 4u);
  EXPECT_EQ(serial.quarantined, 0u);
  const std::string serial_manifest = slurp(serial_cfg.manifest_path);
  // The new per-path fields actually reached the manifest.
  EXPECT_NE(serial_manifest.find("\"path_switches\""), std::string::npos);
  EXPECT_NE(serial_manifest.find("\"nacks_suppressed\""), std::string::npos);

  CampaignConfig parallel_cfg = multipath_campaign(4, "workers4");
  const CampaignResult parallel = run_campaign(parallel_cfg);
  ASSERT_EQ(parallel.completed, 4u);
  EXPECT_EQ(slurp(parallel_cfg.manifest_path), serial_manifest);
  EXPECT_EQ(parallel.aggregate.path_switches, serial.aggregate.path_switches);
  EXPECT_EQ(parallel.aggregate.nack_suppressed, serial.aggregate.nack_suppressed);
}

}  // namespace
}  // namespace streamlab
