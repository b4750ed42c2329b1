// Telemetry-plane overhead benchmarks (results recorded in
// BENCH_TELEMETRY.json; see scripts/bench.sh).
//
// Three questions:
//  1. Campaign throughput with per-trial telemetry snapshots on vs off —
//     the observability tax on the hot trial loop. The paired overhead
//     benchmark times both modes back-to-back in one process and reports
//     the percentage directly, so the recorded artifact carries the
//     "within 5%" claim as a single number rather than a cross-benchmark
//     subtraction.
//  2. ns per recorded sample for the mergeable aggregates (QuantileSketch,
//     LogHistogram) against the fixed-bucket Registry Histogram they
//     complement — the cost of making a distribution mergeable.
//  3. ns per cross-trial fold of a realistic TrialTelemetry record into a
//     CampaignTelemetry, the per-commit cost at the coordinator.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamlab;

/// The tiny scenario of tests/core/test_campaign.cpp: two hops, one
/// mid-clip outage, so each trial exercises faults, recovery and
/// fragmentation. Clip length selects the stress (5 s) or paper-scale
/// (60 s) variant.
CampaignConfig bench_campaign_config(std::size_t trials, bool collect,
                                     std::int64_t clip_seconds = 5) {
  ClipInfo clip;
  clip.data_set = 1;
  clip.content = ContentClass::kNews;
  clip.player = PlayerKind::kRealPlayer;
  clip.tier = RateTier::kLow;
  clip.encoded_rate = BitRate::kbps(33);
  clip.advertised_rate = BitRate::kbps(56);
  clip.length = Duration::seconds(clip_seconds);

  CampaignConfig config;
  config.clip = clip;
  config.trials = trials;
  config.base_seed = 9000;
  config.workers = 1;
  config.collect_telemetry = collect;
  config.scenario.path.hop_count = 2;
  config.scenario.path.one_way_propagation = Duration::millis(5);
  config.scenario.extra_sim_time = Duration::seconds(5);
  FaultEpisode flap;
  flap.kind = FaultKind::kOutage;
  flap.start = SimTime::from_seconds(1.0);
  flap.duration = Duration::millis(500);
  flap.label = "flap";
  config.scenario.episodes.push_back(flap);
  return config;
}

void BM_CampaignTelemetry(benchmark::State& state) {
  const bool collect = state.range(0) != 0;
  constexpr std::size_t kTrials = 8;
  for (auto _ : state) {
    const CampaignResult result =
        run_campaign(bench_campaign_config(kTrials, collect));
    if (result.completed != kTrials) state.SkipWithError("trial quarantined");
    benchmark::DoNotOptimize(result.telemetry.trials_folded());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTrials);
  state.counters["trials_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTrials), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignTelemetry)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

/// Paired on/off measurement in one iteration window. Interleaving the two
/// modes cancels slow machine-level drift (thermal, cache state), so the
/// reported percentage is the honest snapshot tax.
///
/// Measured on the paper-scale 60 s clip — the IMC workload streams
/// minute-scale clips, so this is the trial length the "within 5%" claim
/// applies to. (On the deliberately hostile 5 s stress clip the fixed
/// per-trial costs are ~7x less diluted; that regime stays visible as
/// BM_CampaignTelemetry/0 vs /1 but is not the acceptance number.)
void BM_TelemetrySnapshotOverheadPct(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kTrials = 4;
  constexpr std::int64_t kClipSeconds = 60;
  std::vector<double> ratios;
  for (auto _ : state) {
    const auto t0 = clock::now();
    const CampaignResult off =
        run_campaign(bench_campaign_config(kTrials, false, kClipSeconds));
    const auto t1 = clock::now();
    const CampaignResult on =
        run_campaign(bench_campaign_config(kTrials, true, kClipSeconds));
    const auto t2 = clock::now();
    if (off.completed != kTrials || on.completed != kTrials)
      state.SkipWithError("trial quarantined");
    const double off_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    const double on_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    if (off_ns > 0.0) ratios.push_back((on_ns - off_ns) / off_ns * 100.0);
    benchmark::DoNotOptimize(on.telemetry.trials_folded());
  }
  // Median of per-pair overheads, not a ratio of sums: a single scheduler
  // preemption landing inside one side of one pair would otherwise swing
  // the whole repetition by percentage points.
  double overhead = 0.0;
  if (!ratios.empty()) {
    const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
    std::nth_element(ratios.begin(), mid, ratios.end());
    overhead = *mid;
  }
  state.counters["overhead_pct"] = overhead;
}
// MinTime: ~200 paired runs per repetition, so the median has a deep pool
// of pairs to draw from — the default 0.1 s window leaves too few for the
// estimate to settle on shared/noisy recording hosts.
BENCHMARK(BM_TelemetrySnapshotOverheadPct)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime()
    ->MinTime(2.0);

/// Log-uniform values spanning microseconds-to-seconds style magnitudes —
/// the regime the relative-error sketches are built for.
std::vector<double> sample_values() {
  Rng rng(42);
  std::vector<double> v(1 << 14);
  for (auto& x : v) {
    const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1p-53;
    double scale = 1.0;
    for (int i = 0; i < static_cast<int>(u * 6.0); ++i) scale *= 10.0;
    x = (1.0 + u) * scale;
  }
  return v;
}

void BM_QuantileSketchRecord(benchmark::State& state) {
  const std::vector<double> values = sample_values();
  obs::QuantileSketch sketch(0.01);
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.record(values[i++ & (values.size() - 1)]);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuantileSketchRecord);

void BM_LogHistogramRecord(benchmark::State& state) {
  const std::vector<double> values = sample_values();
  obs::LogHistogram hist(4);
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(static_cast<std::uint64_t>(values[i++ & (values.size() - 1)]));
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogHistogramRecord);

/// The fixed-bucket Registry histogram the mergeable aggregates complement —
/// the baseline cost of recording a sample at all.
void BM_FixedHistogramRecord(benchmark::State& state) {
  const std::vector<double> values = sample_values();
  obs::Registry registry;
  obs::Histogram hist = registry.histogram("bench.hist", 1000.0, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(values[i++ & (values.size() - 1)]);
    benchmark::DoNotOptimize(registry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedHistogramRecord);

/// Per-commit coordinator cost: fold one realistic trial record (4 samples,
/// 4 tallies, a dozen counters) into the campaign-wide aggregate.
void BM_CampaignTelemetryFold(benchmark::State& state) {
  Rng rng(7);
  std::vector<obs::TrialTelemetry> records(64);
  for (std::size_t s = 0; s < records.size(); ++s) {
    obs::TrialTelemetry& t = records[s];
    t.set_sample("trial.goodput_kbps", 30.0 + static_cast<double>(rng.next_u64() % 100) / 10.0);
    t.set_sample("trial.stall_ms", static_cast<double>(rng.next_u64() % 5000));
    t.set_sample("trial.recovery_ratio", static_cast<double>(rng.next_u64() % 100) / 100.0);
    t.set_sample("trial.repair_latency_ms", static_cast<double>(rng.next_u64() % 200));
    t.set_tally("trial.sim_events", rng.next_u64() % 100000);
    t.set_tally("trial.packets_lost", rng.next_u64() % 500);
    t.set_tally("trial.rebuffers", rng.next_u64() % 8);
    t.set_tally("trial.reroutes", rng.next_u64() % 4);
    for (int c = 0; c < 12; ++c)
      t.add_counter("player.counter" + std::to_string(c), rng.next_u64() % 1000);
  }
  obs::CampaignTelemetry fold;
  std::size_t i = 0;
  for (auto _ : state) {
    fold.fold(records[i++ & (records.size() - 1)]);
    benchmark::DoNotOptimize(fold);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CampaignTelemetryFold);

}  // namespace

BENCHMARK_MAIN();
