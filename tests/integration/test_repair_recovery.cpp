// Acceptance tests for the loss repair layer under scripted turbulence: a
// Gilbert–Elliott burst epoch with >=5% steady-state loss must see the
// FEC+NACK stack recover at least 80% of the lost application packets
// (while the repair-disabled baseline reports zero recovered), the repair
// metrics must stay internally consistent, repaired runs must replay
// deterministically, and the recovery columns must surface in the
// turbulence CSV export.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/turbulence.hpp"

namespace streamlab {
namespace {

const ClipSet& study_set() { return table1_catalog()[0]; }

/// The catalog's burst-loss episode (pi_bad ~= 16.7%, mean loss ~= 10%,
/// mean burst length 4), stretched over the whole session after startup so
/// the steady-state loss rate (not a clip-length-diluted average) is what
/// the repair layer has to beat.
TurbulenceScenarioConfig burst_loss_config() {
  FaultEpisode burst = burst_loss_episode();
  burst.start = SimTime::from_seconds(10.0);
  burst.duration = Duration::seconds(600);
  TurbulenceScenarioConfig cfg = turbulence_base_config();
  cfg.episodes.push_back(burst);
  return cfg;
}

RepairLayerConfig fec_nack_repair() {
  RepairLayerConfig r;
  r.fec_k = 8;
  // Interleave at the burst regime's mean burst length so a whole burst
  // lands one-loss-per-row.
  r.fec_stride = 4;
  r.nack = true;
  return r;
}

void expect_repair_metrics_consistent(const SessionRecoveryMetrics& m) {
  EXPECT_EQ(m.packets_recovered(), m.recovered_by_fec + m.recovered_by_retx);
  EXPECT_LE(m.packets_recovered(), m.packets_received);
  EXPECT_LE(m.repair_wire_bytes(), m.total_wire_bytes());
  EXPECT_GE(m.recovery_ratio(), 0.0);
  EXPECT_LE(m.recovery_ratio(), 1.0);
  EXPECT_GE(m.repair_latency_p95_ms, m.repair_latency_mean_ms * 0.5);
}

TEST(RepairRecovery, FecNackRecoversAtLeast80PctUnderBurstLoss) {
  const auto pair = *study_set().pair(RateTier::kLow);
  for (const ClipInfo* clip : {&pair.first, &pair.second}) {
    TurbulenceScenarioConfig cfg = burst_loss_config();
    cfg.repair_layer = fec_nack_repair();
    const auto run = run_turbulence_clip(*clip, cfg);
    const auto& m = clip->player == PlayerKind::kMediaPlayer ? run.media : run.real;
    ASSERT_TRUE(m.has_value());
    expect_repair_metrics_consistent(*m);

    // The episode must have produced a meaningful loss epoch to repair:
    // >= 5% of the session's application packets went missing on the wire.
    const std::uint64_t wire_lost = m->packets_recovered() + m->packets_lost;
    const std::uint64_t sent = m->packets_received + m->packets_lost;
    ASSERT_GT(sent, 0u);
    EXPECT_GE(static_cast<double>(wire_lost) / static_cast<double>(sent), 0.05)
        << clip->id();

    // The acceptance bar: at least 80% of the lost packets repaired.
    EXPECT_GT(m->packets_recovered(), 0u) << clip->id();
    EXPECT_GE(m->recovery_ratio(), 0.80) << clip->id();
    EXPECT_GT(m->recovered_by_fec, 0u) << clip->id();
    EXPECT_GT(m->parity_packets, 0u) << clip->id();
    // Repair pays bandwidth: overhead is visible but bounded (parity is one
    // packet per k=8 plus retransmissions through the 25% pacer).
    EXPECT_GT(m->repair_overhead(), 0.0) << clip->id();
    EXPECT_LT(m->repair_overhead(), 0.5) << clip->id();
  }
}

TEST(RepairRecovery, DisabledRepairReportsZeroRecovered) {
  const auto pair = *study_set().pair(RateTier::kLow);
  const auto run = run_turbulence_clip(pair.second, burst_loss_config());
  ASSERT_TRUE(run.media.has_value());
  const auto& m = *run.media;
  EXPECT_EQ(m.packets_recovered(), 0u);
  EXPECT_EQ(m.recovered_by_fec, 0u);
  EXPECT_EQ(m.recovered_by_retx, 0u);
  EXPECT_EQ(m.nacks_sent, 0u);
  EXPECT_EQ(m.parity_packets, 0u);
  EXPECT_EQ(m.repair_wire_bytes(), 0u);
  EXPECT_EQ(m.recovery_ratio(), 0.0);
  EXPECT_EQ(m.repair_overhead(), 0.0);
  // The same loss epoch hits the unrepaired baseline undiminished.
  EXPECT_GT(m.packets_lost, 0u);
}

TEST(RepairRecovery, RepairReducesResidualLossVersusBaseline) {
  const auto pair = *study_set().pair(RateTier::kLow);
  const auto baseline = run_turbulence_clip(pair.second, burst_loss_config());
  TurbulenceScenarioConfig repaired_cfg = burst_loss_config();
  repaired_cfg.repair_layer = fec_nack_repair();
  const auto repaired = run_turbulence_clip(pair.second, repaired_cfg);
  ASSERT_TRUE(baseline.media && repaired.media);
  // Repair traffic perturbs the loss chain's draw sequence, so the exact
  // loss counts differ — but the residual loss must drop decisively.
  EXPECT_LT(repaired.media->packets_lost, baseline.media->packets_lost / 2);
}

TEST(RepairRecovery, RepairedRunReplaysDeterministically) {
  const auto pair = *study_set().pair(RateTier::kLow);
  TurbulenceScenarioConfig cfg = burst_loss_config();
  cfg.repair_layer = fec_nack_repair();
  const auto a = run_turbulence_clip(pair.second, cfg);
  const auto b = run_turbulence_clip(pair.second, cfg);
  ASSERT_TRUE(a.media && b.media);
  EXPECT_EQ(*a.media, *b.media);
}

TEST(RepairRecovery, RepairSurvivesRouterDownChaos) {
  // The PR 5 chaos scenario with the repair layer on top: router 3 dies for
  // 10 s on a path with a detour. Repair must not destabilise the
  // self-healing machinery, and the metrics must stay consistent.
  const auto pair = *study_set().pair(RateTier::kLow);
  TurbulenceScenarioConfig cfg = burst_loss_config();
  cfg.episodes.clear();
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.episodes.push_back(router_down_episode(3, 30.0, 10.0));
  cfg.repair_layer = fec_nack_repair();

  const auto run = run_turbulence_clip(pair.second, cfg);
  ASSERT_TRUE(run.media.has_value());
  expect_repair_metrics_consistent(*run.media);
  EXPECT_FALSE(run.media->session_failed());
  EXPECT_GT(run.reroutes, 0u);
}

TEST(RepairRecovery, TurbulenceCsvCarriesRecoveryColumns) {
  const auto pair = *study_set().pair(RateTier::kLow);
  TurbulenceScenarioConfig cfg = burst_loss_config();
  cfg.repair_layer = fec_nack_repair();
  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;
  runs.emplace_back("burst-loss", run_turbulence_clip(pair.second, cfg));
  const std::string csv = turbulence_csv(runs);
  EXPECT_NE(csv.find(",recovered,recovery_ratio,repair_latency_mean_ms,repair_overhead"),
            std::string::npos);
  // The data row reports a nonzero recovered count and a ratio above the
  // acceptance bar — spot-check by recomputing from the run itself.
  ASSERT_TRUE(runs[0].second.media.has_value());
  const auto& m = *runs[0].second.media;
  EXPECT_NE(csv.find("," + std::to_string(m.packets_recovered()) + ","),
            std::string::npos);
  EXPECT_GT(m.packets_recovered(), 0u);
}

}  // namespace
}  // namespace streamlab
