#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../campaign/tiny_campaign.hpp"
#include "obs/obs.hpp"

namespace streamlab {
namespace {

using campaign_test::repair_campaign;
using campaign_test::tiny_campaign;

std::string temp_manifest(const char* name) {
  std::string path = ::testing::TempDir() + "campaign_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

TEST(Campaign, RunsEveryTrialCleanly) {
  const CampaignConfig config = tiny_campaign(5);
  const CampaignResult result = run_campaign(config);
  ASSERT_EQ(result.trials.size(), 5u);
  EXPECT_EQ(result.completed, 5u);
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.aggregate.trials, 5u);
  EXPECT_EQ(result.aggregate.sessions, 5u);
  for (const TrialOutcome& t : result.trials) {
    EXPECT_EQ(t.seed, config.base_seed + t.index);
    EXPECT_NE(t.digest, 0u);
    EXPECT_GT(t.checks, 0u);
    EXPECT_EQ(t.violations, 0u);
    EXPECT_FALSE(t.budget_exhausted);
    ASSERT_TRUE(t.result.has_value());
  }
}

TEST(Campaign, FaultHookQuarantinesExactlyThatSeed) {
  CampaignConfig config = tiny_campaign(20);
  config.manifest_path = temp_manifest("fault_hook");
  config.fault_hook = [](audit::Auditor& auditor, std::size_t index, std::uint64_t) {
    if (index == 7) auditor.force_violation("planted by test");
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 19u);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_FALSE(result.ok());
  // Exactly the planted seed is quarantined; everyone else is salvaged.
  EXPECT_EQ(result.quarantined_seeds(),
            (std::vector<std::uint64_t>{config.base_seed + 7}));
  EXPECT_EQ(result.trials[7].status, TrialStatus::kQuarantined);
  EXPECT_NE(result.trials[7].reason.find("planted by test"), std::string::npos);
  EXPECT_EQ(result.aggregate.trials, 19u);

  // The manifest records the quarantine line-for-line.
  std::ifstream in(config.manifest_path);
  std::string line;
  int quarantined_lines = 0;
  while (std::getline(in, line))
    if (line.find("\"quarantined\"") != std::string::npos) ++quarantined_lines;
  EXPECT_EQ(quarantined_lines, 1);
}

TEST(Campaign, ManifestRoundTripRestoresOutcomes) {
  CampaignConfig config = tiny_campaign(3);
  config.manifest_path = temp_manifest("round_trip");
  const CampaignResult first = run_campaign(config);
  ASSERT_EQ(first.completed, 3u);

  const CampaignResult second = run_campaign(config);
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.completed, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const TrialOutcome& live = first.trials[i];
    const TrialOutcome& restored = second.trials[i];
    EXPECT_TRUE(restored.from_manifest);
    EXPECT_EQ(restored.seed, live.seed);
    EXPECT_EQ(restored.digest, live.digest);
    EXPECT_EQ(restored.checks, live.checks);
    EXPECT_EQ(restored.sim_events, live.sim_events);
    EXPECT_EQ(restored.frames_rendered, live.frames_rendered);
    EXPECT_EQ(restored.packets_lost, live.packets_lost);
    EXPECT_EQ(restored.stall_time.ns(), live.stall_time.ns());
  }
  // The salvage aggregate is identical whether folded live or from disk.
  EXPECT_EQ(second.aggregate.frames_rendered, first.aggregate.frames_rendered);
  EXPECT_EQ(second.aggregate.packets_lost, first.aggregate.packets_lost);
  EXPECT_EQ(second.aggregate.stall_time.ns(), first.aggregate.stall_time.ns());
}

TEST(Campaign, ResumesAfterKillFromFirstIncompleteTrial) {
  CampaignConfig config = tiny_campaign(5);
  config.manifest_path = temp_manifest("resume_kill");
  const CampaignResult full = run_campaign(config);
  ASSERT_EQ(full.completed, 5u);

  // Simulate a campaign killed after trial 1: keep the first two manifest
  // lines only.
  std::vector<std::string> lines;
  {
    std::ifstream in(config.manifest_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);
  {
    std::ofstream out(config.manifest_path, std::ios::trunc);
    out << lines[0] << '\n' << lines[1] << '\n';
  }

  const CampaignResult resumed = run_campaign(config);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.completed, 5u);
  // Re-run trials replay deterministically: same digests as the first pass.
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(resumed.trials[i].digest, full.trials[i].digest) << "trial " << i;
  // The manifest is whole again (2 restored lines + 3 appended).
  std::ifstream in(config.manifest_path);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++count;
  EXPECT_EQ(count, 5u);
}

TEST(Campaign, RejectsManifestFromDifferentConfig) {
  CampaignConfig config = tiny_campaign(2);
  config.manifest_path = temp_manifest("mismatch");
  run_campaign(config);

  CampaignConfig changed = config;
  changed.scenario.path.loss_probability = 0.01;  // different study entirely
  EXPECT_THROW(run_campaign(changed), std::runtime_error);

  CampaignConfig reseeded = config;
  reseeded.base_seed = 999;
  EXPECT_THROW(run_campaign(reseeded), std::runtime_error);
}

TEST(Campaign, ConfigDigestSeparatesStudies) {
  const CampaignConfig config = tiny_campaign(2);
  CampaignConfig other = config;
  EXPECT_EQ(campaign_config_digest(config), campaign_config_digest(other));
  other.scenario.max_stall = Duration::seconds(7);
  EXPECT_NE(campaign_config_digest(config), campaign_config_digest(other));
}

TEST(Campaign, VerifyDeterminismPassesOnDefaultSeeds) {
  CampaignConfig config = tiny_campaign(2);
  config.verify_determinism = true;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 2u);
  for (const TrialOutcome& t : result.trials) {
    EXPECT_EQ(t.status, TrialStatus::kCompleted);
    EXPECT_FALSE(t.divergence.has_value());
  }
}

TEST(Campaign, InjectedNondeterminismPinpointsFirstDivergentEvent) {
  CampaignConfig config = tiny_campaign(1);
  config.verify_determinism = true;
  config.verify_seed_skew = 1;  // replay under a different seed: must diverge
  const CampaignResult result = run_campaign(config);
  ASSERT_EQ(result.trials.size(), 1u);
  const TrialOutcome& t = result.trials[0];
  EXPECT_EQ(t.status, TrialStatus::kQuarantined);
  ASSERT_TRUE(t.divergence.has_value());
  EXPECT_NE(t.reason.find("diverge"), std::string::npos);
  EXPECT_NE(t.reason.find(std::to_string(*t.divergence)), std::string::npos);
}

TEST(Campaign, EventBudgetTruncatesYetLedgersBalance) {
  CampaignConfig config = tiny_campaign(1);
  config.scenario.max_sim_events = 500;  // far below a full trial
  const CampaignResult result = run_campaign(config);
  ASSERT_EQ(result.trials.size(), 1u);
  const TrialOutcome& t = result.trials[0];
  EXPECT_TRUE(t.budget_exhausted);
  EXPECT_EQ(t.sim_events, 500u);
  // Truncation is not a violation: queued and in-flight packets keep the
  // conservation ledger balanced.
  EXPECT_EQ(t.status, TrialStatus::kCompleted) << t.reason;
  EXPECT_EQ(t.violations, 0u);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The ordered-commit guarantee, asserted at its strongest: a parallel
/// campaign's resume manifest is byte-identical to the serial one, and every
/// per-trial digest and aggregate field matches.
TEST(CampaignParallel, ManifestBytesIdenticalToSerial) {
  CampaignConfig serial = tiny_campaign(8);
  serial.workers = 1;
  serial.manifest_path = temp_manifest("serial_ref");
  const CampaignResult ref = run_campaign(serial);
  ASSERT_EQ(ref.completed, 8u);

  CampaignConfig parallel = tiny_campaign(8);
  parallel.workers = 4;
  parallel.manifest_path = temp_manifest("parallel_4");
  const CampaignResult par = run_campaign(parallel);
  ASSERT_EQ(par.completed, 8u);

  EXPECT_EQ(slurp(serial.manifest_path), slurp(parallel.manifest_path));
  ASSERT_EQ(par.trials.size(), ref.trials.size());
  for (std::size_t i = 0; i < ref.trials.size(); ++i) {
    EXPECT_EQ(par.trials[i].index, ref.trials[i].index);
    EXPECT_EQ(par.trials[i].seed, ref.trials[i].seed);
    EXPECT_EQ(par.trials[i].digest, ref.trials[i].digest) << "trial " << i;
    EXPECT_EQ(par.trials[i].sim_events, ref.trials[i].sim_events);
  }
  EXPECT_EQ(par.aggregate.sessions, ref.aggregate.sessions);
  EXPECT_EQ(par.aggregate.frames_rendered, ref.aggregate.frames_rendered);
  EXPECT_EQ(par.aggregate.frames_dropped, ref.aggregate.frames_dropped);
  EXPECT_EQ(par.aggregate.packets_received, ref.aggregate.packets_received);
  EXPECT_EQ(par.aggregate.packets_lost, ref.aggregate.packets_lost);
  EXPECT_EQ(par.aggregate.rebuffer_events, ref.aggregate.rebuffer_events);
  EXPECT_EQ(par.aggregate.stall_time.ns(), ref.aggregate.stall_time.ns());
}

/// Quarantine semantics survive parallelism: a planted violation lands on
/// exactly the same seed, with the same manifest record, at any worker count.
TEST(CampaignParallel, FaultHookQuarantinesSameSeedAsSerial) {
  const auto plant = [](audit::Auditor& auditor, std::size_t index, std::uint64_t) {
    if (index == 7) auditor.force_violation("planted by test");
  };
  CampaignConfig serial = tiny_campaign(20);
  serial.workers = 1;
  serial.manifest_path = temp_manifest("fault_serial");
  serial.fault_hook = plant;
  const CampaignResult ref = run_campaign(serial);

  CampaignConfig parallel = tiny_campaign(20);
  parallel.workers = 4;
  parallel.manifest_path = temp_manifest("fault_parallel");
  parallel.fault_hook = plant;
  const CampaignResult par = run_campaign(parallel);

  EXPECT_EQ(par.completed, ref.completed);
  EXPECT_EQ(par.quarantined, 1u);
  EXPECT_EQ(par.quarantined_seeds(), ref.quarantined_seeds());
  EXPECT_EQ(par.trials[7].status, TrialStatus::kQuarantined);
  EXPECT_EQ(par.trials[7].reason, ref.trials[7].reason);
  EXPECT_EQ(slurp(serial.manifest_path), slurp(parallel.manifest_path));
}

/// A manifest written serially resumes under a parallel pool (workers is
/// deliberately not part of the config digest) and completes to the same
/// bytes the serial run would have written.
TEST(CampaignParallel, SerialManifestResumesUnderParallelWorkers) {
  CampaignConfig config = tiny_campaign(6);
  config.workers = 1;
  config.manifest_path = temp_manifest("mixed_resume");
  const CampaignResult full = run_campaign(config);
  ASSERT_EQ(full.completed, 6u);
  const std::string full_bytes = slurp(config.manifest_path);

  // Keep only the first three lines — a campaign killed mid-run — then
  // resume with four workers.
  std::vector<std::string> lines;
  {
    std::ifstream in(config.manifest_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  {
    std::ofstream out(config.manifest_path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';
  }
  config.workers = 4;
  const CampaignResult resumed = run_campaign(config);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.completed, 6u);
  EXPECT_EQ(slurp(config.manifest_path), full_bytes);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(resumed.trials[i].digest, full.trials[i].digest) << "trial " << i;
}

TEST(CampaignParallel, VerifyDeterminismPassesUnderWorkers) {
  CampaignConfig config = tiny_campaign(4);
  config.workers = 4;
  config.verify_determinism = true;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 4u);
  for (const TrialOutcome& t : result.trials)
    EXPECT_FALSE(t.divergence.has_value());
}

/// A shared Obs across concurrent trials would be a silent data race — the
/// campaign rejects it up front instead. With only one trial actually
/// pending, no concurrency can occur and the same config is accepted.
TEST(CampaignParallel, SharedObsRejectedWhenTrialsWouldRunConcurrently) {
  obs::Obs obs;
  CampaignConfig config = tiny_campaign(4);
  config.workers = 4;
  config.scenario.obs = &obs;
  EXPECT_THROW(run_campaign(config), std::runtime_error);

  CampaignConfig single = tiny_campaign(1);
  single.workers = 4;  // clamped to the single pending trial: no concurrency
  single.scenario.obs = &obs;
  EXPECT_NO_THROW(run_campaign(single));
}

/// A throwing progress hook propagates out of a pooled campaign: the
/// runners stop claiming and are joined first instead of ending the program.
TEST(CampaignParallel, ThrowingProgressHookPropagatesAfterJoiningRunners) {
  CampaignConfig config = tiny_campaign(8);
  config.workers = 4;
  config.progress_every = 1;
  config.progress_hook = [](const CampaignProgress&) {
    throw std::runtime_error("hook failed");
  };
  EXPECT_THROW(run_campaign(config), std::runtime_error);
}

/// workers=0 (one per hardware thread) must behave like any explicit count.
TEST(CampaignParallel, DefaultWorkerCountProducesSameResults) {
  CampaignConfig serial = tiny_campaign(4);
  serial.workers = 1;
  const CampaignResult ref = run_campaign(serial);

  CampaignConfig defaulted = tiny_campaign(4);
  defaulted.workers = 0;
  const CampaignResult result = run_campaign(defaulted);
  ASSERT_EQ(result.trials.size(), ref.trials.size());
  for (std::size_t i = 0; i < ref.trials.size(); ++i)
    EXPECT_EQ(result.trials[i].digest, ref.trials[i].digest);
  EXPECT_EQ(result.aggregate.frames_rendered, ref.aggregate.frames_rendered);
}

// --- Campaigns with the loss repair layer active. The CampaignRepair suite
// also runs under TSan in CI (parity/NACK traffic crossing the worker pool
// must stay race-free). ---

TEST(CampaignRepair, SalvagesRecoveryMetricsIntoAggregate) {
  const CampaignResult result = run_campaign(repair_campaign(3));
  EXPECT_EQ(result.completed, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.aggregate.packets_recovered, 0u);
  EXPECT_GT(result.aggregate.parity_packets, 0u);
  for (const TrialOutcome& t : result.trials) {
    EXPECT_GT(t.packets_recovered, 0u) << "trial " << t.index;
    ASSERT_TRUE(t.result.has_value());
  }
}

TEST(CampaignRepair, ManifestRoundTripKeepsRecoveryFields) {
  CampaignConfig config = repair_campaign(3);
  config.manifest_path = temp_manifest("repair_round_trip");
  const CampaignResult first = run_campaign(config);
  ASSERT_EQ(first.completed, 3u);

  const CampaignResult second = run_campaign(config);
  EXPECT_EQ(second.resumed, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second.trials[i].packets_recovered, first.trials[i].packets_recovered);
    EXPECT_EQ(second.trials[i].nacks_sent, first.trials[i].nacks_sent);
    EXPECT_EQ(second.trials[i].retransmissions_sent,
              first.trials[i].retransmissions_sent);
    EXPECT_EQ(second.trials[i].parity_packets, first.trials[i].parity_packets);
  }
  EXPECT_EQ(second.aggregate.packets_recovered, first.aggregate.packets_recovered);
  EXPECT_EQ(second.aggregate.nacks_sent, first.aggregate.nacks_sent);
  EXPECT_EQ(second.aggregate.retransmissions_sent,
            first.aggregate.retransmissions_sent);
  EXPECT_EQ(second.aggregate.parity_packets, first.aggregate.parity_packets);
}

TEST(CampaignRepair, ManifestBytesIdenticalToSerialWithRepair) {
  CampaignConfig serial = repair_campaign(8);
  serial.workers = 1;
  serial.manifest_path = temp_manifest("repair_serial");
  const CampaignResult ref = run_campaign(serial);
  ASSERT_EQ(ref.completed, 8u);
  EXPECT_GT(ref.aggregate.packets_recovered, 0u);

  CampaignConfig parallel = repair_campaign(8);
  parallel.workers = 4;
  parallel.manifest_path = temp_manifest("repair_parallel");
  const CampaignResult par = run_campaign(parallel);
  ASSERT_EQ(par.completed, 8u);

  EXPECT_EQ(slurp(serial.manifest_path), slurp(parallel.manifest_path));
  for (std::size_t i = 0; i < ref.trials.size(); ++i) {
    EXPECT_EQ(par.trials[i].digest, ref.trials[i].digest) << "trial " << i;
    EXPECT_EQ(par.trials[i].packets_recovered, ref.trials[i].packets_recovered);
  }
  EXPECT_EQ(par.aggregate.packets_recovered, ref.aggregate.packets_recovered);
  EXPECT_EQ(par.aggregate.nacks_sent, ref.aggregate.nacks_sent);
  EXPECT_EQ(par.aggregate.retransmissions_sent, ref.aggregate.retransmissions_sent);
  EXPECT_EQ(par.aggregate.parity_packets, ref.aggregate.parity_packets);
}

TEST(CampaignRepair, VerifyDeterminismPassesWithRepairActive) {
  CampaignConfig config = repair_campaign(4);
  config.workers = 4;
  config.verify_determinism = true;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 4u);
  EXPECT_TRUE(result.ok());
  for (const TrialOutcome& t : result.trials)
    EXPECT_FALSE(t.divergence.has_value());
}

TEST(CampaignRepair, RepairConfigIsPartOfTheDigest) {
  const CampaignConfig config = repair_campaign(2);
  CampaignConfig same = repair_campaign(2);
  EXPECT_EQ(campaign_config_digest(config), campaign_config_digest(same));
  CampaignConfig different_k = repair_campaign(2);
  different_k.scenario.repair_layer.fec_k = 16;
  EXPECT_NE(campaign_config_digest(config), campaign_config_digest(different_k));
  CampaignConfig no_nack = repair_campaign(2);
  no_nack.scenario.repair_layer.nack = false;
  EXPECT_NE(campaign_config_digest(config), campaign_config_digest(no_nack));
}

// --- Campaign telemetry plane: cross-trial fold, manifest round trip,
// quarantine flight recorder, and the live progress hook. ---

/// The determinism contract extends to telemetry: the cross-trial fold is
/// byte-identical between workers=1 and workers=4 because outcomes commit in
/// trial-index order regardless of which worker finished first.
TEST(CampaignTelemetry, FoldIsByteIdenticalSerialVsFourWorkers) {
  CampaignConfig serial = tiny_campaign(8);
  serial.workers = 1;
  const CampaignResult ref = run_campaign(serial);
  ASSERT_EQ(ref.completed, 8u);

  CampaignConfig parallel = tiny_campaign(8);
  parallel.workers = 4;
  const CampaignResult par = run_campaign(parallel);
  ASSERT_EQ(par.completed, 8u);

  EXPECT_EQ(ref.telemetry.trials_folded(), 8u);
  EXPECT_EQ(ref.telemetry.counter("trials.completed"), 8u);
  ASSERT_NE(ref.telemetry.sketch("trial.goodput_kbps"), nullptr);
  EXPECT_EQ(ref.telemetry.sketch("trial.goodput_kbps")->count(), 8u);
  ASSERT_NE(ref.telemetry.tally("trial.sim_events"), nullptr);
  EXPECT_EQ(par.telemetry.serialize(), ref.telemetry.serialize());
}

/// Telemetry snapshots ride the manifest: a resumed campaign rebuilds the
/// exact same fold from disk that the fresh run built live.
TEST(CampaignTelemetry, ManifestRoundTripRestoresTheFold) {
  CampaignConfig config = tiny_campaign(4);
  config.manifest_path = temp_manifest("telemetry_round_trip");
  const CampaignResult first = run_campaign(config);
  ASSERT_EQ(first.completed, 4u);
  EXPECT_NE(slurp(config.manifest_path).find("\"telemetry\":\"tt1|"),
            std::string::npos);

  const CampaignResult second = run_campaign(config);
  EXPECT_EQ(second.resumed, 4u);
  for (const TrialOutcome& t : second.trials) {
    EXPECT_TRUE(t.from_manifest);
    ASSERT_TRUE(t.telemetry.has_value());
  }
  EXPECT_EQ(second.telemetry.serialize(), first.telemetry.serialize());
}

/// Turning collection off removes the snapshot from the manifest bytes but
/// keeps the cheap trial-status counters, so dashboards degrade gracefully.
TEST(CampaignTelemetry, DisabledCollectionStillCountsTrials) {
  CampaignConfig config = tiny_campaign(3);
  config.collect_telemetry = false;
  config.manifest_path = temp_manifest("telemetry_off");
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.telemetry.trials_folded(), 0u);
  EXPECT_EQ(result.telemetry.counter("trials.completed"), 3u);
  EXPECT_EQ(result.telemetry.sketch("trial.goodput_kbps"), nullptr);
  for (const TrialOutcome& t : result.trials)
    EXPECT_FALSE(t.telemetry.has_value());
  EXPECT_EQ(slurp(config.manifest_path).find("\"telemetry\""),
            std::string::npos);
}

/// A quarantined seed leaves a parseable post-mortem next to the manifest:
/// header + audit report + the planted violation + a bounded trace tail.
TEST(CampaignTelemetry, QuarantineWritesPostmortemFlightRecord) {
  CampaignConfig config = tiny_campaign(4);
  config.manifest_path = temp_manifest("flight_recorder");
  config.flight_recorder_records = 32;
  config.fault_hook = [](audit::Auditor& auditor, std::size_t index, std::uint64_t) {
    if (index == 2) auditor.force_violation("planted by test");
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.telemetry.counter("trials.quarantined"), 1u);
  ASSERT_EQ(result.postmortem_paths.size(), 1u);
  EXPECT_EQ(result.postmortem_paths[0],
            config.manifest_path + ".postmortem-102.ndjson");

  const std::string body = slurp(result.postmortem_paths[0]);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("\"record\":\"header\""), std::string::npos);
  EXPECT_NE(body.find("\"record\":\"audit\""), std::string::npos);
  EXPECT_NE(body.find("\"record\":\"violation\""), std::string::npos);
  EXPECT_NE(body.find("\"record\":\"metric\""), std::string::npos);
  EXPECT_NE(body.find("planted by test"), std::string::npos);
  EXPECT_NE(body.find("\"seed\":102"), std::string::npos);
  // Every line is a {...} object and the trace tail respects the record cap.
  std::size_t trace_lines = 0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line.find("\"record\":\"trace\"") != std::string::npos) ++trace_lines;
  }
  EXPECT_GT(trace_lines, 0u);
  EXPECT_LE(trace_lines, 32u);
}

/// The progress hook fires every `progress_every` commits plus once at the
/// end, with a monotone trial count and a live telemetry pointer.
TEST(CampaignTelemetry, ProgressHookFiresOnCadenceAndAtCompletion) {
  CampaignConfig config = tiny_campaign(5);
  config.workers = 1;
  config.progress_every = 2;
  std::vector<std::size_t> done_at_call;
  std::vector<std::uint64_t> folded_at_call;
  config.progress_hook = [&](const CampaignProgress& p) {
    EXPECT_EQ(p.trials_total, 5u);
    EXPECT_EQ(p.workers, 1u);
    ASSERT_NE(p.telemetry, nullptr);
    done_at_call.push_back(p.trials_done);
    folded_at_call.push_back(p.telemetry->trials_folded());
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 5u);
  EXPECT_EQ(done_at_call, (std::vector<std::size_t>{2, 4, 5}));
  EXPECT_EQ(folded_at_call, (std::vector<std::uint64_t>{2, 4, 5}));
}

/// The same cadence under a 4-runner pool: the hook runs on the committing
/// thread in commit order, so it sees exactly the serial sequence.
TEST(CampaignTelemetry, ProgressHookKeepsCadenceUnderFourWorkers) {
  CampaignConfig config = tiny_campaign(9);
  config.workers = 4;
  config.progress_every = 2;
  std::vector<std::size_t> done_at_call;
  config.progress_hook = [&](const CampaignProgress& p) {
    EXPECT_EQ(p.trials_total, 9u);
    EXPECT_EQ(p.workers, 4u);
    ASSERT_NE(p.telemetry, nullptr);
    EXPECT_EQ(p.telemetry->trials_folded(), p.trials_done);
    done_at_call.push_back(p.trials_done);
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 9u);
  EXPECT_EQ(done_at_call, (std::vector<std::size_t>{2, 4, 6, 8, 9}));
}

/// At workers = 1 the calling thread is the only runner: no thread is
/// spawned, and every trial (and so its fault hook) runs where
/// run_campaign was called.
TEST(Campaign, SerialRunsEveryTrialOnTheCallingThread) {
  CampaignConfig config = tiny_campaign(3);
  config.workers = 1;
  std::vector<std::thread::id> ran_on;
  config.fault_hook = [&ran_on](audit::Auditor&, std::size_t, std::uint64_t) {
    ran_on.push_back(std::this_thread::get_id());
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(3, std::this_thread::get_id()));
}

/// A trial writes its audit report into its registry after the fault hook
/// and before the snapshot: "audit.violations" counts the violations the
/// hook forces after the run, and "audit.checks" equals the report's.
TEST(Campaign, TrialWritesAuditReportOnRegistry) {
  CampaignConfig config = tiny_campaign(1);
  config.fault_hook = [](audit::Auditor& auditor, std::size_t, std::uint64_t) {
    auditor.force_violation("forced after the run");
    auditor.force_violation("forced again");
  };
  obs::Obs obs(campaign_detail::trial_obs_config(config));
  const TrialOutcome t =
      campaign_detail::run_trial(config, 0, campaign_detail::config_hex(config), &obs);
  EXPECT_EQ(t.status, TrialStatus::kQuarantined);
  EXPECT_EQ(obs.registry().counter("audit.violations").value(), 2u);
  EXPECT_GT(t.checks, 0u);
  EXPECT_EQ(obs.registry().counter("audit.checks").value(), t.checks);
  ASSERT_TRUE(t.telemetry.has_value());
  EXPECT_EQ(t.telemetry->counter("audit.violations"), 2u);
}

TEST(Campaign, ThrowingTrialIsQuarantinedOthersSalvaged) {
  CampaignConfig config = tiny_campaign(3);
  config.fault_hook = [](audit::Auditor&, std::size_t index, std::uint64_t) {
    if (index == 1) throw std::runtime_error("trial exploded");
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.trials[1].status, TrialStatus::kQuarantined);
  EXPECT_NE(result.trials[1].reason.find("trial exploded"), std::string::npos);
  EXPECT_EQ(result.aggregate.trials, 2u);
}

// --- Crash tolerance: torn manifests, cooperative cancellation, worker
// --- evidence fields (PR 8 satellites) ---

TEST(CampaignCrash, TornTrailingManifestLineToleratedAndRepaired) {
  CampaignConfig config = tiny_campaign(3);
  config.manifest_path = temp_manifest("torn_tail");
  const CampaignResult first = run_campaign(config);
  ASSERT_EQ(first.completed, 3u);
  const std::string whole = slurp(config.manifest_path);

  // A coordinator killed mid-write leaves the final line truncated. The
  // resume must keep trials 0-1, count one torn line, re-run trial 2, and
  // leave the repaired manifest byte-identical to the uninterrupted one.
  {
    std::ofstream out(config.manifest_path, std::ios::binary | std::ios::trunc);
    out << whole.substr(0, whole.size() - 9);
  }
  const CampaignResult second = run_campaign(config);
  EXPECT_EQ(second.manifest_torn_lines, 1u);
  EXPECT_EQ(second.resumed, 2u);
  EXPECT_EQ(second.completed, 3u);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.trials[2].digest, first.trials[2].digest);
  EXPECT_FALSE(second.trials[2].from_manifest);
  EXPECT_EQ(slurp(config.manifest_path), whole);
}

TEST(CampaignCrash, MissingFinalNewlineRestoredWithoutRerun) {
  CampaignConfig config = tiny_campaign(2);
  config.manifest_path = temp_manifest("no_newline");
  run_campaign(config);
  const std::string whole = slurp(config.manifest_path);

  // Only the trailing '\n' is lost: the line itself is complete, so the
  // trial is restored (no torn-line count) and the newline re-appended.
  {
    std::ofstream out(config.manifest_path, std::ios::binary | std::ios::trunc);
    out << whole.substr(0, whole.size() - 1);
  }
  const CampaignResult second = run_campaign(config);
  EXPECT_EQ(second.manifest_torn_lines, 0u);
  EXPECT_EQ(second.resumed, 2u);
  EXPECT_EQ(slurp(config.manifest_path), whole);
}

TEST(CampaignCrash, CompleteButForeignFinalLineStillRejected) {
  CampaignConfig config = tiny_campaign(2);
  config.manifest_path = temp_manifest("foreign_tail");
  run_campaign(config);

  // A structurally complete final line that doesn't parse is corruption,
  // not a mid-write crash — resuming over it must refuse loudly.
  {
    std::ofstream out(config.manifest_path, std::ios::binary | std::ios::app);
    out << "{\"bogus\":true}\n";
  }
  EXPECT_THROW(run_campaign(config), std::runtime_error);
}

/// A complete line whose number does not parse (or does not fit) is
/// corruption: resuming over it throws the documented std::runtime_error,
/// naming the line and the key.
TEST(CampaignCrash, BadNumberInCompleteLineThrowsTaggedRuntimeError) {
  CampaignConfig config = tiny_campaign(2);
  config.workers = 1;
  config.manifest_path = temp_manifest("bad_number");
  run_campaign(config);
  const std::string whole = slurp(config.manifest_path);
  const std::size_t key = whole.find("\"checks\":", whole.find('\n'));
  ASSERT_NE(key, std::string::npos);
  const std::size_t value = key + std::string("\"checks\":").size();
  const std::size_t value_end = whole.find(',', value);

  for (const char* bad : {"abc", "-5", "99999999999999999999999"}) {
    {
      std::ofstream out(config.manifest_path, std::ios::binary | std::ios::trunc);
      out << whole.substr(0, value) << bad << whole.substr(value_end);
    }
    try {
      run_campaign(config);
      ADD_FAILURE() << "no throw for checks=" << bad;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find("\"checks\""), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

TEST(CampaignCrash, InProcessQuarantineRecordsEmptyWorkerEvidence) {
  CampaignConfig config = tiny_campaign(3);
  config.manifest_path = temp_manifest("evidence");
  config.fault_hook = [](audit::Auditor& auditor, std::size_t index, std::uint64_t) {
    if (index == 1) auditor.force_violation("planted by test");
  };
  const CampaignResult result = run_campaign(config);
  ASSERT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.trials[1].attempts, 0u);
  EXPECT_EQ(result.trials[1].worker_exit_status, 0);
  EXPECT_TRUE(result.trials[1].stderr_tail.empty());

  // The quarantine line carries the (zeroed) worker-evidence fields so
  // post-mortems can tell "trial is bad" from "worker died"; completed
  // lines stay evidence-free and thus byte-identical to older manifests.
  const std::string manifest = slurp(config.manifest_path);
  EXPECT_NE(manifest.find("\"attempts\":0,\"worker_exit_status\":0,\"stderr_tail\":\"\""),
            std::string::npos);
  EXPECT_EQ(manifest.find("\"attempts\":"), manifest.rfind("\"attempts\":"));

  const CampaignResult resumed = run_campaign(config);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.trials[1].attempts, 0u);
  EXPECT_EQ(resumed.trials[1].worker_exit_status, 0);
}

TEST(CampaignCrash, CancelFlagFlushesCommittedPrefixAndResumes) {
  std::atomic<bool> cancel{false};
  CampaignConfig config = tiny_campaign(6);
  config.workers = 1;
  config.manifest_path = temp_manifest("cancel_serial");
  config.cancel = &cancel;
  config.progress_every = 1;
  config.progress_hook = [&cancel](const CampaignProgress& p) {
    if (p.trials_done == 2) cancel.store(true);
  };
  const CampaignResult stopped = run_campaign(config);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.trials.size(), 2u);
  EXPECT_EQ(stopped.completed, 2u);

  // Everything committed before the stop is already flushed: clearing the
  // flag resumes exactly from trial 2.
  cancel.store(false);
  config.progress_hook = nullptr;
  const CampaignResult resumed = run_campaign(config);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.completed, 6u);
}

TEST(CampaignCrash, CancelUnderParallelPoolCommitsContiguousPrefix) {
  std::atomic<bool> cancel{false};
  CampaignConfig config = tiny_campaign(24);
  config.workers = 4;
  config.manifest_path = temp_manifest("cancel_parallel");
  config.cancel = &cancel;
  config.progress_every = 1;
  // Tiny trials finish faster than the cancel flag can land, so pace each
  // trial: by the time trial 2 commits and flips the flag, at most a few
  // more are claimed — the stop is guaranteed to be mid-study. The sleep
  // lives in the test-only hook and never affects trial results.
  config.fault_hook = [](audit::Auditor&, std::size_t, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  config.progress_hook = [&cancel](const CampaignProgress& p) {
    if (p.trials_done == 2) cancel.store(true);
  };
  const CampaignResult stopped = run_campaign(config);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_GE(stopped.trials.size(), 2u);
  EXPECT_LT(stopped.trials.size(), 24u);

  // The manifest holds exactly the committed contiguous prefix — workers
  // that finished later trials before parking don't leave gapped lines.
  std::ifstream in(config.manifest_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, stopped.trials.size());

  // Resuming finishes the study, and the final manifest is byte-identical
  // to an uninterrupted serial run's.
  cancel.store(false);
  config.progress_hook = nullptr;
  config.fault_hook = nullptr;
  const CampaignResult resumed = run_campaign(config);
  EXPECT_EQ(resumed.completed, 24u);
  CampaignConfig reference = tiny_campaign(24);
  reference.workers = 1;
  reference.manifest_path = temp_manifest("cancel_reference");
  run_campaign(reference);
  EXPECT_EQ(slurp(config.manifest_path), slurp(reference.manifest_path));
}

}  // namespace
}  // namespace streamlab
