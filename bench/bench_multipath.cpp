// Multipath striping benchmark — the proof artifact for BENCH_MULTIPATH.json
// (see scripts/bench.sh). Measures the subflow scheduler + join buffer the
// way the paper measures the players: end-to-end sessions, striped vs
// single-path, under
//
//  * a calm detour path (what does the striping machinery itself cost to
//    simulate, and how does the 2:1 stripe split goodput), and
//  * the flap chaos scenario from the acceptance suite (primary-span router
//    dies twice mid-stream; the striped session rides it out on the
//    surviving subflow while NACK repair backfills the detection window).
//
// Counters record path switches, per-path goodput, join-buffer reorder
// depth, suppressed NACKs and stall seconds next to the wall-clock cost, so
// the artifact captures both "what striping buys" and "what it costs".
// A micro benchmark pins the per-packet dispatch cost (pick + stamp) of the
// smooth weighted round-robin scheduler.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "core/turbulence.hpp"
#include "players/multipath.hpp"

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

/// Detour topology + NACK repair, optionally striped. Mirrors the
/// acceptance-test setup at bench length.
TurbulenceScenarioConfig stripe_scenario(bool multipath, bool flaps) {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.repair_layer.nack = true;
  cfg.multipath.enabled = multipath;
  if (flaps) {
    for (double start : {8.0, 18.0}) {
      FaultEpisode down;
      down.kind = FaultKind::kRouterDown;
      down.router_index = 3;
      down.start = SimTime::from_seconds(start);
      down.duration = Duration::seconds(6);
      down.label = "flap";
      cfg.episodes.push_back(down);
    }
  }
  return cfg;
}

void report_multipath_counters(benchmark::State& state,
                               const SessionRecoveryMetrics& m) {
  state.counters["path_switches"] = static_cast<double>(m.path_switches);
  state.counters["primary_goodput_kbps"] = m.goodput_kbps(0);
  state.counters["detour_goodput_kbps"] = m.goodput_kbps(1);
  state.counters["primary_loss"] = m.subflow[0].loss_ratio();
  state.counters["detour_loss"] = m.subflow[1].loss_ratio();
  state.counters["reorder_depth_p95"] = static_cast<double>(m.reorder_depth_p95);
  state.counters["nacks_suppressed"] = static_cast<double>(m.nack_suppressed);
  state.counters["join_duplicates"] = static_cast<double>(m.join_duplicates);
  state.counters["stall_seconds"] = m.stall_time.to_seconds();
  state.counters["rebuffer_ratio"] = m.rebuffer_ratio();
  state.counters["failovers"] = static_cast<double>(m.failovers);
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
    benchmark::DoNotOptimize(last.path_switches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  report_multipath_counters(state, last);
}

/// Calm path: the cost of the striping machinery itself (two subflows, join
/// buffer, health reports) vs the single-path session it replaces.
void BM_MultipathSteadyState(benchmark::State& state) {
  run_session_benchmark(state, stripe_scenario(state.range(0) != 0, false));
}
BENCHMARK(BM_MultipathSteadyState)
    ->ArgName("multipath")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Flap chaos: primary-span router dies twice; the stripe's survival value
/// shows up as stall/rebuffer deltas in the counters.
void BM_MultipathFlapChaos(benchmark::State& state) {
  run_session_benchmark(state, stripe_scenario(state.range(0) != 0, true));
}
BENCHMARK(BM_MultipathFlapChaos)
    ->ArgName("multipath")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Per-packet dispatch cost of the smooth-WRR scheduler: pick + stamp, the
/// two calls on the server's send path for every striped packet.
void BM_SubflowDispatch(benchmark::State& state) {
  MultipathConfig cfg;
  cfg.enabled = true;
  SubflowScheduler sched(cfg);
  const SimTime now;
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    const int id = sched.pick(now);
    benchmark::DoNotOptimize(sched.stamp(id, 500, now));
    ++dispatched;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_SubflowDispatch);

/// Join-buffer insert under a worst-case 2:1 interleave with one path a
/// full stripe period behind: every insert either holds or releases a run.
void BM_JoinBufferInterleave(benchmark::State& state) {
  ReorderJoinBuffer join(256, Duration::millis(400));
  const SimTime now;
  std::uint32_t seq = 0;
  std::uint64_t inserted = 0;
  for (auto _ : state) {
    // Stripe order with the detour lagging: 1, 2 arrive before 0.
    JoinPacket p;
    p.media_len = 500;
    p.seq = seq + 1;
    benchmark::DoNotOptimize(join.insert(p, now));
    p.seq = seq + 2;
    benchmark::DoNotOptimize(join.insert(p, now));
    p.seq = seq;
    benchmark::DoNotOptimize(join.insert(p, now));
    seq += 3;
    inserted += 3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(inserted));
}
BENCHMARK(BM_JoinBufferInterleave);

}  // namespace

BENCHMARK_MAIN();
