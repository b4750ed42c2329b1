// Workload `campaign`: in-process run_campaign batches of audited
// turbulence trials on set1/M-h, at nproc workers and at 1 worker.
//
// The scenario is the one `turbulence_lab --chaos --fec 8 --nack` builds
// (router failure on a path with a detour, route repair, a dormant mirror,
// FEC and NACK repair) plus one Gilbert–Elliott burst-loss episode, with
// telemetry on and a manifest written. It captures and dissects nothing.
//
// The traced phase reruns the batch on a pool rebuilt from the public
// campaign_detail pieces (run_trial on the workers, Committer on this
// thread), so trials and ordered commits get spans; its manifest and
// telemetry must equal run_campaign's byte for byte.
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>

#include "alloc_counter.hpp"
#include "core/campaign.hpp"
#include "recorded.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

using namespace streamlab;

/// Trials per run_campaign call: ~0.7 s at 4 workers, short enough that
/// some batches of a run fall in one of the shared host's full-speed
/// moments (see `fastest` in stats.hpp). Repeated batches pool their trial
/// times, so the p95 rests on >= 200 trials.
constexpr std::size_t kBatchTrials = 32;
/// Batches of the traced phase: 256 trials, so its p95 has support too.
constexpr std::size_t kTracedBatches = 256 / kBatchTrials;

CampaignConfig campaign_config(std::uint64_t seed, std::size_t workers,
                               const std::string& manifest) {
  CampaignConfig cfg;
  cfg.clip = table1_catalog()[0].pair(RateTier::kHigh)->second;  // set1/M-h
  cfg.trials = kBatchTrials;
  cfg.base_seed = seed;
  cfg.workers = workers;
  cfg.manifest_path = manifest;
  cfg.collect_telemetry = true;

  TurbulenceScenarioConfig& s = cfg.scenario;
  s.path.hop_count = 8;
  s.path.one_way_propagation = Duration::millis(20);
  s.seed = 42;
  s.recovery.inactivity_timeout = Duration::seconds(8);
  s.repair_layer.fec_k = 8;
  s.repair_layer.fec_stride = 4;
  s.repair_layer.nack = true;
  // --chaos trials: router 3 dies mid-stream on a path whose detour bridges
  // routers 3-4; the repair plane reroutes, the mirror stays armed.
  s.path.detour = DetourConfig{3, 4, 2, 10};
  s.repair = RouteRepairConfig{};
  s.mirror_server = true;
  FaultEpisode down;
  down.kind = FaultKind::kRouterDown;
  down.router_index = 3;
  down.start = SimTime::from_seconds(30.0);
  down.duration = Duration::seconds(10);
  down.label = "router-down";
  s.episodes.push_back(down);
  // One burst-loss epoch after the router is back, with turbulence_lab's
  // Gilbert–Elliott parameters.
  FaultEpisode burst;
  burst.kind = FaultKind::kBurstLoss;
  burst.start = SimTime::from_seconds(60.0);
  burst.duration = Duration::seconds(25);
  burst.gilbert = GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
  burst.label = "burst-loss";
  s.episodes.push_back(burst);
  s.max_sim_events = 50'000'000;
  s.max_wall_time = std::chrono::seconds(120);
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// One campaign's outputs and timings.
struct Batch {
  double wall_s = 0.0;
  std::size_t quarantined = 0;
  std::string manifest;
  std::string telemetry;
  std::vector<double> trial_ms;
  CampaignAggregate aggregate;
  std::uint64_t checks = 0;
  std::uint64_t events = 0;
};

Batch run_batch(const CampaignConfig& config) {
  std::filesystem::remove(config.manifest_path);  // a leftover would resume
  Batch b;
  const auto start = Clock::now();
  const CampaignResult r = run_campaign(config);
  b.wall_s = seconds_since(start);
  b.quarantined = r.quarantined;
  b.manifest = read_file(config.manifest_path);
  b.telemetry = r.telemetry.serialize();
  b.aggregate = r.aggregate;
  for (const TrialOutcome& t : r.trials) {
    b.trial_ms.push_back(static_cast<double>(t.wall_ns) / 1e6);
    b.checks += t.checks;
    b.events += t.sim_events;
  }
  return b;
}

/// Work counted by the rebuilt pool.
struct PoolCounters {
  std::vector<double> commit_us;
  std::uint64_t busy_ns = 0;
  std::uint64_t allocs = 0;
  std::map<std::string, std::uint64_t> by_category;
};

/// run_campaign rebuilt from campaign_detail (mirrors core/campaign.cpp's
/// pool): `config.workers` threads run trials, this thread commits them in
/// index order.
Batch run_rebuilt_batch(const CampaignConfig& config, SpanRecorder& spans,
                        PoolCounters& counters) {
  std::filesystem::remove(config.manifest_path);
  const SpanRecorder::Scope root(spans, "core.campaign");
  const auto start = Clock::now();
  const std::string hex = campaign_detail::config_hex(config);
  campaign_detail::Committer committer(config, hex, config.workers);

  std::vector<std::optional<TrialOutcome>> finished(config.trials);
  std::mutex mu;
  std::condition_variable done;
  std::size_t next = 0;             // guarded by mu
  std::uint64_t busy_ns = 0;        // guarded by mu
  std::uint64_t allocs = 0;         // guarded by mu
  const auto worker = [&] {
    obs::Obs scratch(campaign_detail::trial_obs_config(config));
    for (;;) {
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= config.trials) return;
        index = next++;
      }
      const AllocScope alloc_scope;
      const auto t0 = Clock::now();
      std::optional<TrialOutcome> outcome;
      {
        const SpanRecorder::Scope s(spans, "core.run_trial");
        outcome = campaign_detail::run_trial(config, index, hex, &scratch);
      }
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
      {
        std::lock_guard<std::mutex> lock(mu);
        busy_ns += ns;
        allocs += alloc_scope.delta().calls;
        finished[index] = std::move(outcome);
      }
      done.notify_all();
    }
  };
  // jthreads join on every exit path, so no worker outlives this frame.
  std::vector<std::jthread> pool;
  for (std::size_t w = 0; w < config.workers; ++w) pool.emplace_back(worker);

  Batch b;
  for (std::size_t i = 0; i < config.trials; ++i) {
    std::optional<TrialOutcome> outcome;
    {
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [&] { return finished[i].has_value(); });
      outcome = std::move(finished[i]);
    }
    b.trial_ms.push_back(static_cast<double>(outcome->wall_ns) / 1e6);
    b.checks += outcome->checks;
    b.events += outcome->sim_events;
    if (outcome->telemetry)
      for (const char* category : {"link", "playout", "control", "fault", "timer"})
        counters.by_category[category] +=
            outcome->telemetry->counter(std::string("loop.") + category);
    const auto t0 = Clock::now();
    {
      const SpanRecorder::Scope s(spans, "core.commit");
      committer.commit(std::move(*outcome));
    }
    counters.commit_us.push_back(seconds_since(t0) * 1e6);
  }
  for (std::jthread& t : pool) t.join();
  const CampaignResult r = committer.finish();
  b.wall_s = seconds_since(start);
  b.quarantined = r.quarantined;
  b.manifest = read_file(config.manifest_path);
  b.telemetry = r.telemetry.serialize();
  b.aggregate = r.aggregate;
  counters.busy_ns += busy_ns;
  counters.allocs += allocs;
  return b;
}

/// Trials/s of the fastest batch (see `fastest` in stats.hpp).
double fastest_rate(const std::vector<Batch>& batches) {
  std::vector<double> seconds;
  for (const Batch& b : batches) seconds.push_back(b.wall_s);
  return static_cast<double>(kBatchTrials) / fastest(seconds);
}

std::vector<double> pooled_trial_ms(const std::vector<Batch>& batches) {
  std::vector<double> out;
  for (const Batch& b : batches) out.insert(out.end(), b.trial_ms.begin(), b.trial_ms.end());
  return out;
}

}  // namespace

Report run_campaign_workload(const RunOptions& options) {
  Report report;
  Checks& checks = report.checks;
  const std::size_t workers = options.threads;
  const std::string manifest = options.out_dir + "/campaign-manifest.ndjson";
  const bool default_seed = options.seed == recorded::kCampaignSeed;
  report.info = {{"clip", "set1/M-h"},
                 {"trials_per_batch", std::to_string(kBatchTrials)},
                 {"workers", std::to_string(workers)}};

  // Set-up: build the configuration, clear old outputs and run one trial
  // through the full campaign path, so lazy statics and allocator pools
  // are filled before timing.
  SetupTimer setup([&] {
    CampaignConfig warm = campaign_config(options.seed, 1, manifest);
    warm.trials = 1;
    std::filesystem::remove(manifest);
    const CampaignResult r = run_campaign(warm);
    checks.expect(r.completed == 1, "campaign: the set-up trial did not complete");
  });
  setup.repeat(3);

  // Every batch must be clean and byte-identical to the first, at any
  // worker count; the first is also held to the recorded digests.
  std::optional<Batch> reference;
  const auto check_batch = [&](const Batch& b, const char* what) {
    checks.add_operations(kBatchTrials, b.quarantined,
                          std::string("campaign: quarantined trials in a ") + what + " batch");
    if (!reference) {
      reference = b;
      const std::uint64_t manifest_digest = Digest().str(b.manifest).value();
      const std::uint64_t telemetry_digest = Digest().str(b.telemetry).value();
      if (default_seed) {
        checks.expect(manifest_digest == recorded::kCampaignManifestDigest,
                      "campaign: manifest digest " + hex64(manifest_digest) + " != recorded");
        checks.expect(telemetry_digest == recorded::kCampaignTelemetryDigest,
                      "campaign: telemetry digest " + hex64(telemetry_digest) + " != recorded");
      }
      report.info.push_back({"manifest_digest", hex64(manifest_digest)});
      report.info.push_back({"telemetry_digest", hex64(telemetry_digest)});
    }
    checks.expect(b.manifest == reference->manifest,
                  std::string("campaign: ") + what + " manifest differs");
    checks.expect(b.telemetry == reference->telemetry,
                  std::string("campaign: ") + what + " telemetry differs");
  };

  // Untraced: batches at nproc workers for 75% of the budget, then at one
  // worker for the rest; at least one batch each. The nproc rate is the
  // gated one, so it gets the most batches.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Batch> wide, serial;
  const auto start = Clock::now();
  while (wide.empty() || seconds_since(start) < 0.75 * budget) {
    wide.push_back(run_batch(campaign_config(options.seed, workers, manifest)));
    check_batch(wide.back(), "nproc-worker");
    setup.between_operations(/*interval_s=*/1.0);
  }
  while (serial.empty() || seconds_since(start) < budget) {
    serial.push_back(run_batch(campaign_config(options.seed, 1, manifest)));
    check_batch(serial.back(), "1-worker");
    setup.between_operations(/*interval_s=*/1.0);
  }
  report.setup_s = setup.median_s();
  report.info.push_back({"setup_repeats", std::to_string(setup.repeats())});

  const double tps = fastest_rate(wide);
  const double tps_1w = fastest_rate(serial);
  const std::vector<double> trial_ms = pooled_trial_ms(wide);
  report.ops_per_s = tps;
  report.figures.push_back({"campaign_trials_per_s", tps, "trials/s", ""});
  report.figures.push_back({"campaign_trials_per_s_1w", tps_1w, "trials/s", ""});
  report.figures.push_back(timing_figure("campaign_trial_ms_p50", trial_ms, "ms"));
  add_tail_figure(report.figures, "campaign_trial_ms", trial_ms, "ms");
  report.info.push_back({"trials_timed", std::to_string(trial_ms.size())});
  if (!options.trace) return report;

  // Telemetry off, for its overhead: the same batch without per-trial Obs,
  // a few times so its fastest is compared with the fastest with telemetry.
  CampaignConfig quiet = campaign_config(options.seed, workers, manifest);
  quiet.collect_telemetry = false;
  std::vector<Batch> no_telemetry;
  for (int i = 0; i < 4; ++i) {
    no_telemetry.push_back(run_batch(quiet));
    checks.add_operations(kBatchTrials, no_telemetry.back().quarantined,
                          "campaign: quarantined trials without telemetry");
  }

  // Traced: the rebuilt pool.
  SpanRecorder spans(true);
  PoolCounters counters;
  std::vector<Batch> rebuilt;
  for (std::size_t i = 0; i < kTracedBatches; ++i) {
    rebuilt.push_back(
        run_rebuilt_batch(campaign_config(options.seed, workers, manifest), spans, counters));
    check_batch(rebuilt.back(), "rebuilt traced");
  }

  auto& m = report.layers;
  const std::vector<Span> all = spans.spans();
  const std::vector<double> traced_trial_ms = durations_ms(all, "core.run_trial");
  const double trials = static_cast<double>(traced_trial_ms.size());
  double events = 0.0, checks_done = 0.0, wall_s = 0.0;
  for (const Batch& b : rebuilt) {
    events += static_cast<double>(b.events);
    checks_done += static_cast<double>(b.checks);
    wall_s += b.wall_s;
  }
  const double trial_total_ms = static_cast<double>(counters.busy_ns) / 1e6;
  m["core.trial_ms_p50"] = median(traced_trial_ms);
  m["core.trial_ms_p95"] = percentile(traced_trial_ms, 95.0).value_or(0.0);
  m["core.commit_us_p50"] = median(counters.commit_us);
  m["core.worker_utilization"] =
      trial_total_ms / (1000.0 * wall_s * static_cast<double>(workers));
  m["core.scaling_eff"] = tps / (static_cast<double>(workers) * tps_1w);
  m["obs.telemetry_overhead_pct"] = overhead_pct(fastest_rate(no_telemetry), tps);
  m["sim.audit_checks_per_trial"] = checks_done / trials;
  m["sim.run_ms"] = trial_total_ms / trials;
  m["sim.events"] = events / trials;
  m["sim.ns_per_event"] = events > 0 ? trial_total_ms * 1e6 / events : 0.0;
  m["sim.allocs_per_event"] = events > 0 ? static_cast<double>(counters.allocs) / events : 0.0;
  for (const auto& [category, n] : counters.by_category)
    m["sim.events." + category] = static_cast<double>(n) / trials;
  const CampaignAggregate& agg = rebuilt.front().aggregate;
  const double repairable = static_cast<double>(agg.packets_recovered + agg.packets_lost);
  m["players.repair.recovery_ratio"] =
      repairable > 0 ? static_cast<double>(agg.packets_recovered) / repairable : 0.0;
  m["trace_overhead_pct"] = overhead_pct(tps, fastest_rate(rebuilt));
  report.figures.push_back({"trace_overhead_pct", m["trace_overhead_pct"], "%", ""});
  spans.write_chrome_trace(options.out_dir + "/trace-campaign.json");
  return report;
}

}  // namespace e2ebench
