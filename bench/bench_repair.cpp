// Loss-repair benchmark — the proof artifact for BENCH_REPAIR.json (see
// scripts/bench.sh). Measures the FEC+NACK repair layer the way the paper
// measures the players: end-to-end sessions under scripted turbulence, with
// repair off (the baseline the seed repo shipped) and on, across
//
//  * the Gilbert–Elliott burst-loss regimes the fault layer established
//    (a mild ~6% epoch with short bursts and the harsh ~10% epoch with
//    mean burst length 4), and
//  * the router-down chaos scenario from the self-healing layer (router 3
//    dies mid-stream on a detour path; the repair plane reroutes).
//
// Each benchmark reports recovery ratio, mean/p95 repair latency and repair
// bandwidth overhead as counters next to the wall-clock cost of running the
// repaired session, so the artifact records both "how much loss came back"
// and "what the repair machinery costs to simulate".
#include <benchmark/benchmark.h>

#include <cstddef>

#include "core/turbulence.hpp"

namespace {

using namespace streamlab;

ClipInfo bench_clip() {
  ClipInfo clip;
  clip.data_set = 1;
  clip.content = ContentClass::kNews;
  clip.player = PlayerKind::kMediaPlayer;
  clip.tier = RateTier::kLow;
  clip.encoded_rate = BitRate::kbps(109);
  clip.advertised_rate = BitRate::kbps(56);
  clip.length = Duration::seconds(30);
  return clip;
}

RepairLayerConfig repair_config() {
  RepairLayerConfig r;
  r.fec_k = 8;
  r.fec_stride = 4;  // interleave at the harsh regime's mean burst length
  r.nack = true;
  return r;
}

/// The PR 1 burst-loss regimes: index 0 = mild (pi_bad ~7.4%, mean loss
/// ~5.9%, mean burst 1.25), index 1 = harsh (pi_bad ~16.7%, mean loss ~10%,
/// mean burst 4 — the lab and CI regime).
GilbertElliottConfig burst_regime(int index) {
  if (index == 0) return GilbertElliottConfig{0.02, 0.25, 0.0, 0.8};
  return GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
}

TurbulenceScenarioConfig burst_scenario(int regime, bool repaired) {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  FaultEpisode burst;
  burst.kind = FaultKind::kBurstLoss;
  burst.start = SimTime::from_seconds(5.0);
  burst.duration = Duration::seconds(20);
  burst.gilbert = burst_regime(regime);
  burst.label = regime == 0 ? "burst-mild" : "burst-harsh";
  cfg.episodes.push_back(burst);
  if (repaired) cfg.repair_layer = repair_config();
  return cfg;
}

/// The PR 5 chaos scenario: router 3 down for 10 s on a detour path with
/// the route-repair control plane armed.
TurbulenceScenarioConfig chaos_scenario(bool repaired) {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  FaultEpisode down;
  down.kind = FaultKind::kRouterDown;
  down.router_index = 3;
  down.start = SimTime::from_seconds(10.0);
  down.duration = Duration::seconds(10);
  down.label = "router-down";
  cfg.episodes.push_back(down);
  if (repaired) cfg.repair_layer = repair_config();
  return cfg;
}

void report_repair_counters(benchmark::State& state,
                            const SessionRecoveryMetrics& m) {
  state.counters["recovery_ratio"] = m.recovery_ratio();
  state.counters["repair_latency_mean_ms"] = m.repair_latency_mean_ms;
  state.counters["repair_latency_p95_ms"] = m.repair_latency_p95_ms;
  state.counters["repair_overhead"] = m.repair_overhead();
  state.counters["packets_recovered"] = static_cast<double>(m.packets_recovered());
  state.counters["packets_lost_residual"] = static_cast<double>(m.packets_lost);
  state.counters["nacks_sent"] = static_cast<double>(m.nacks_sent);
  state.counters["retx_sent"] = static_cast<double>(m.retransmissions_sent);
}

void run_session_benchmark(benchmark::State& state,
                           const TurbulenceScenarioConfig& cfg) {
  SessionRecoveryMetrics last;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const TurbulenceRunResult run = run_turbulence_clip(bench_clip(), cfg);
    if (!run.media) {
      state.SkipWithError("session missing");
      return;
    }
    last = *run.media;
    packets += last.packets_received;
    benchmark::DoNotOptimize(last.recovered_by_fec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  report_repair_counters(state, last);
}

/// range(0) = Gilbert–Elliott regime, range(1) = repair layer on/off.
void BM_RepairBurstLoss(benchmark::State& state) {
  run_session_benchmark(
      state, burst_scenario(static_cast<int>(state.range(0)), state.range(1) != 0));
}
BENCHMARK(BM_RepairBurstLoss)
    ->ArgNames({"regime", "repair"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_RepairRouterDownChaos(benchmark::State& state) {
  run_session_benchmark(state, chaos_scenario(state.range(0) != 0));
}
BENCHMARK(BM_RepairRouterDownChaos)
    ->ArgName("repair")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
