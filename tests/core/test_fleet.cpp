// Fleet scenario tests: determinism, metric sanity, audit cleanliness —
// plus the campaign-level worker parity of the chaos and repair scenarios:
// their manifests, digests and telemetry fold must be byte-identical
// serially and on 4 workers.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/fleet.hpp"
#include "../campaign/tiny_campaign.hpp"

namespace streamlab {
namespace {

FleetConfig small_fleet(std::size_t sessions, std::uint64_t seed = 7) {
  FleetConfig config;
  config.sessions = sessions;
  config.seed = seed;
  config.episode = Duration::seconds(8);
  config.turbulence_start = Duration::seconds(2);
  config.turbulence_duration = Duration::seconds(3);
  return config;
}

TEST(Fleet, RunsAndAccounts) {
  const FleetConfig config = small_fleet(200);
  const FleetResult r = run_fleet(config);
  EXPECT_EQ(r.sessions, 200u);
  EXPECT_GT(r.packets_sent, 0u);
  EXPECT_EQ(r.packets_sent, r.packets_delivered + r.packets_lost);
  EXPECT_GT(r.packets_lost, 0u);  // the shared turbulence window bites
  EXPECT_GT(r.delivery_ratio, 0.5);
  EXPECT_LT(r.delivery_ratio, 1.0);
  EXPECT_GT(r.events_executed, r.packets_sent);  // sends + deliveries
  EXPECT_GT(r.sim_seconds, 7.0);
  EXPECT_GT(r.table_bytes, 0u);
  // The flyweight contract: tens of bytes per session, not hundreds.
  EXPECT_LT(r.bytes_per_session, 64.0);
}

TEST(Fleet, DeterministicAcrossRuns) {
  const FleetResult a = run_fleet(small_fleet(300));
  const FleetResult b = run_fleet(small_fleet(300));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);

  const FleetResult other = run_fleet(small_fleet(300, /*seed=*/8));
  EXPECT_NE(other.digest, a.digest) << "digest insensitive to seed";
}

TEST(Fleet, AuditCleanAndProbeFolded) {
  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  FleetConfig config = small_fleet(100);
  config.auditor = &auditor;
  config.probe = &probe;
  const FleetResult r = run_fleet(config);
  EXPECT_TRUE(auditor.report().clean())
      << auditor.report().summary();
  EXPECT_GT(auditor.report().checks_performed, 0u);
  EXPECT_EQ(probe.events(), r.packets_delivered);
}

// `turbulence_lab --fleet 10000 --verify-determinism` as a tier-1 test: the
// default fleet, fully audited and probed, run twice. The digest pins the
// scheduler's fire order over ~3.3M events at a ~10^4-deep queue.
TEST(Fleet, TenThousandSessionsAuditedAndReplayVerified) {
  struct Run {
    FleetResult result;
    audit::Auditor auditor;
    audit::DeterminismProbe probe;
  };
  const auto run = [](Run& out) {
    FleetConfig config;
    config.sessions = 10'000;
    config.seed = 1;
    config.auditor = &out.auditor;
    config.probe = &out.probe;
    out.result = run_fleet(config);
  };
  Run first;
  Run replay;
  run(first);
  run(replay);
  for (const Run* r : {&first, &replay}) {
    EXPECT_TRUE(r->auditor.report().clean()) << r->auditor.report().summary();
    EXPECT_GT(r->auditor.report().checks_performed, r->result.events_executed);
  }
  EXPECT_EQ(first.result.digest, replay.result.digest);
  EXPECT_EQ(first.result.events_executed, replay.result.events_executed);
  EXPECT_EQ(first.probe.digest(), replay.probe.digest());
  EXPECT_EQ(first.probe.events(), first.result.packets_delivered);
  EXPECT_EQ(first.result.digest, 0x3d11cc04de89d0ecULL);
}

// --- Campaign worker parity on chaos + repair scenarios ---

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_manifest(const std::string& name) {
  std::string path = ::testing::TempDir() + "worker_parity_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

// The tiny campaign reshaped into the self-healing chaos scenario: a router
// dies mid-clip on a detour-bridged path and the repair plane reroutes.
CampaignConfig tiny_chaos_campaign(std::size_t trials) {
  CampaignConfig config = campaign_test::tiny_campaign(trials);
  config.scenario.path.hop_count = 8;
  config.scenario.path.detour = DetourConfig{3, 4, 2, 10};
  config.scenario.repair = RouteRepairConfig{};
  config.scenario.mirror_server = true;
  config.scenario.episodes.clear();
  FaultEpisode down;
  down.kind = FaultKind::kRouterDown;
  down.router_index = 3;
  down.start = SimTime::from_seconds(1.0);
  down.duration = Duration::millis(1500);
  down.label = "router-down";
  config.scenario.episodes.push_back(down);
  return config;
}

// The tiny campaign with burst loss and the FEC+NACK repair layer active.
CampaignConfig tiny_repair_campaign(std::size_t trials) {
  CampaignConfig config = campaign_test::tiny_campaign(trials);
  config.scenario.repair_layer.fec_k = 8;
  config.scenario.repair_layer.nack = true;
  FaultEpisode burst;
  burst.kind = FaultKind::kBurstLoss;
  burst.start = SimTime::from_seconds(1.5);
  burst.duration = Duration::seconds(2);
  burst.label = "burst";
  config.scenario.episodes.push_back(burst);
  return config;
}

struct CampaignFingerprint {
  std::string manifest;
  std::vector<std::uint64_t> digests;
  std::uint64_t telemetry_hash = 0;
};

CampaignFingerprint run_fingerprint(CampaignConfig config, std::size_t workers,
                                    const std::string& name) {
  config.workers = workers;
  config.verify_determinism = true;
  config.manifest_path = temp_manifest(name);
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.ok());
  CampaignFingerprint fp;
  fp.manifest = read_file(config.manifest_path);
  for (const TrialOutcome& t : result.trials) fp.digests.push_back(t.digest);
  std::hash<std::string> h;
  fp.telemetry_hash = h(result.telemetry.serialize());
  return fp;
}

void expect_workers_identical(const CampaignConfig& config, const char* tag) {
  const auto serial = run_fingerprint(config, 1, std::string(tag) + "_w1");
  const auto parallel = run_fingerprint(config, 4, std::string(tag) + "_w4");
  ASSERT_FALSE(serial.manifest.empty());
  EXPECT_EQ(parallel.digests, serial.digests) << tag << ": trial digests diverged";
  EXPECT_EQ(parallel.manifest, serial.manifest)
      << tag << ": 4-worker manifest differs from serial";
  EXPECT_EQ(parallel.telemetry_hash, serial.telemetry_hash);
}

TEST(CampaignWorkerParity, ChaosCampaignByteIdentical) {
  expect_workers_identical(tiny_chaos_campaign(3), "chaos");
}

TEST(CampaignWorkerParity, RepairCampaignByteIdentical) {
  expect_workers_identical(tiny_repair_campaign(3), "repair");
}

}  // namespace
}  // namespace streamlab
