#include "core/turbulence.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "players/server.hpp"

namespace streamlab {
namespace {

bool inside_any_episode(const std::vector<FaultEpisode>& episodes, SimTime t) {
  return std::any_of(episodes.begin(), episodes.end(),
                     [t](const FaultEpisode& e) { return e.covers(t); });
}

SessionRecoveryMetrics collect(const ClipInfo& clip, const StreamClient& client,
                               const StreamServer& server, const StreamServer* mirror,
                               const std::vector<FaultEpisode>& episodes) {
  SessionRecoveryMetrics m;
  static_cast<StreamClient::Stats&>(m) = client.stats();
  m.clip = clip;
  for (const StreamServer* s : {&server, mirror}) {
    if (s == nullptr) continue;
    m.retransmissions_sent += s->stats().retx_packets;
    m.retx_suppressed_pacer += s->stats().retx_suppressed;
  }
  m.path_switches = server.path_switches();
  m.multipath_degraded = server.multipath_degraded();

  // Attribute stall time to router failure: overlap each stall interval
  // with the merged kRouterDown windows.
  std::vector<std::pair<SimTime, SimTime>> down_windows;
  for (const FaultEpisode& e : episodes)
    if (e.kind == FaultKind::kRouterDown) down_windows.emplace_back(e.start, e.end());
  std::sort(down_windows.begin(), down_windows.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& w : down_windows) {
    if (!merged.empty() && w.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, w.second);
    else
      merged.push_back(w);
  }
  for (const auto& [stall_start, stall_end] : client.stall_intervals()) {
    for (const auto& [win_start, win_end] : merged) {
      const SimTime lo = std::max(stall_start, win_start);
      const SimTime hi = std::min(stall_end, win_end);
      if (hi > lo) m.stall_during_router_down += hi - lo;
    }
  }

  if (!episodes.empty()) {
    const FaultEpisode& first = *std::min_element(
        episodes.begin(), episodes.end(),
        [](const FaultEpisode& a, const FaultEpisode& b) { return a.start < b.start; });
    for (const PacketEvent& p : client.packets()) {
      if (p.network_time >= first.end()) {
        m.time_to_recover = p.network_time - first.end();
        break;
      }
    }
    const SimTime last_end =
        std::max_element(episodes.begin(), episodes.end(),
                         [](const FaultEpisode& a, const FaultEpisode& b) {
                           return a.end() < b.end();
                         })
            ->end();
    for (const FrameEvent& f : client.frame_events()) {
      if (f.rendered) continue;
      if (inside_any_episode(episodes, f.time)) {
        ++m.frames_dropped_during_episodes;
      } else if (f.time >= last_end) {
        ++m.frames_dropped_after_episodes;
      }
    }
  }
  return m;
}

SimTime run_deadline(EventLoop& loop, Duration clip_length,
                     const TurbulenceScenarioConfig& config) {
  SimTime deadline = loop.now() + clip_length + config.extra_sim_time;
  for (const FaultEpisode& e : config.episodes) {
    const SimTime after_episode = e.end() + config.extra_sim_time;
    if (after_episode > deadline) deadline = after_episode;
  }
  return deadline;
}

/// Runs the scenario timeline under the configured budgets: first to the
/// scripted horizon, then the bounded stall/recovery tail (every remaining
/// event source is bounded — per-frame stalls cap at max_stall, the watchdog
/// and batch timers stop once a session ends — so completion reflects
/// survival, not the deadline). Events fire in ~16k chunks with the
/// wall-clock budget checked between chunks.
void run_budgeted(EventLoop& loop, SimTime deadline,
                  const TurbulenceScenarioConfig& config, TurbulenceRunResult& result) {
  constexpr std::uint64_t kChunk = 16384;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t event_budget =
      config.max_sim_events == 0 ? UINT64_MAX : config.max_sim_events;
  const auto over_wall = [&] {
    return config.max_wall_time.count() != 0 &&
           std::chrono::steady_clock::now() - wall_start >= config.max_wall_time;
  };

  bool draining_tail = false;
  while (true) {
    if (result.sim_events >= event_budget || over_wall()) {
      result.budget_exhausted = true;
      break;
    }
    const std::uint64_t chunk = std::min(kChunk, event_budget - result.sim_events);
    const std::uint64_t fired =
        draining_tail ? loop.run(chunk) : loop.run_until(deadline, chunk);
    result.sim_events += fired;
    if (fired < chunk) {
      if (draining_tail) break;  // queue empty: the run finished naturally
      draining_tail = true;      // horizon reached: drain the bounded tail
    }
  }
}

/// The clip and pair forms: every clip streams from its own server over one
/// path, and one fault schedule on the bottleneck link hits them all — the
/// "same path, same turbulence" comparison the paper's simultaneous runs
/// were designed to guarantee. With `mirror`, a mirror host serves each
/// clip too, for failover.
TurbulenceRun run_sessions(const std::vector<RigSession>& sessions, bool mirror,
                           const TurbulenceScenarioConfig& config) {
  SessionRig::Config rc;
  rc.path = config.path;
  rc.path.seed = config.seed;
  rc.seed = config.seed;
  rc.sessions = sessions;
  rc.obs = config.obs;
  rc.auditor = config.auditor;
  rc.probe = config.probe;
  rc.mirror = mirror;
  rc.route_repair = config.repair;
  rc.repair_span_first = config.repair_span_first;
  rc.repair_span_last = config.repair_span_last;
  rc.player.wm = config.wm;
  rc.player.rm = config.rm;
  rc.player.rebuffering = config.rebuffering;
  rc.player.max_stall = config.max_stall;
  rc.player.recovery = config.recovery;
  rc.player.failover.icmp_unreachable_threshold = config.icmp_unreachable_threshold;
  rc.player.repair = config.repair_layer;
  rc.player.multipath = config.multipath;
  rc.episodes = config.episodes;

  TurbulenceRun run{std::make_unique<SessionRig>(rc), {}};
  SessionRig& rig = *run.rig;
  TurbulenceRunResult& result = run.result;
  Duration longest = Duration::zero();
  for (const RigSession& s : sessions) longest = std::max(longest, s.clip.length);
  rig.start();
  EventLoop& loop = rig.network().loop();
  run_budgeted(loop, run_deadline(loop, longest, config), config, result);
  // Close any episode whose obs span is still open at the horizon (a budget
  // truncation can stop the loop mid-episode) and run the trial-end ledgers.
  rig.faults().finish();
  RouteRepair* repair = rig.route_repair();
  if (repair != nullptr) repair->finish();
  if (config.auditor != nullptr) rig.network().audit_finalize(*config.auditor);
  // Each component's Stats record is the only count of its metrics; it
  // reaches the run's registry here, once, when the run is over.
  if (config.obs != nullptr) rig.publish_stats(config.obs->registry());

  if (repair != nullptr) {
    result.reroutes = repair->stats().reroutes;
    result.route_restores = repair->stats().restores;
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const ClipInfo& clip = sessions[i].clip;
    (clip.player == PlayerKind::kMediaPlayer ? result.media : result.real) =
        collect(clip, rig.client(i), rig.server(i), rig.mirror(i), config.episodes);
  }
  result.episodes = rig.faults().records();
  return run;
}

}  // namespace

TurbulenceRun run_turbulence_rig(const ClipInfo& clip,
                                 const TurbulenceScenarioConfig& config) {
  return run_sessions({{clip, "server", config.seed ^ 0x524D}}, config.mirror_server, config);
}

TurbulenceRunResult run_turbulence_clip(const ClipInfo& clip,
                                        const TurbulenceScenarioConfig& config) {
  return run_turbulence_rig(clip, config).result;
}

TurbulenceRunResult run_turbulence_pair(const ClipSet& set, RateTier tier,
                                        const TurbulenceScenarioConfig& config) {
  const auto pair = set.pair(tier);
  if (!pair) return {};
  return run_sessions({{pair->first, "real-server", config.seed ^ 0x524D},
                       {pair->second, "media-server", config.seed ^ 0x524D}},
                      /*mirror=*/false, config)
      .result;
}

TurbulenceScenarioConfig turbulence_base_config(const RepairLayerConfig& repair) {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  cfg.repair_layer = repair;
  return cfg;
}

namespace {

FaultEpisode timed_episode(FaultKind kind, const char* label, double start_s,
                           double duration_s) {
  FaultEpisode e;
  e.kind = kind;
  e.start = SimTime::from_seconds(start_s);
  e.duration = Duration::seconds(static_cast<std::int64_t>(duration_s));
  e.label = label;
  return e;
}

TurbulenceScenarioConfig with_episode(FaultEpisode episode, const RepairLayerConfig& repair) {
  TurbulenceScenarioConfig cfg = turbulence_base_config(repair);
  cfg.episodes.push_back(std::move(episode));
  return cfg;
}

/// A 4 s link flap at t=30 s: shorter than the delay buffers, so both
/// players should ride it out and complete playback.
TurbulenceScenarioConfig short_outage(const RepairLayerConfig& repair) {
  return with_episode(timed_episode(FaultKind::kOutage, "short-flap", 30.0, 4.0), repair);
}

/// A 30 s outage: longer than the 8 s inactivity window, so the watchdogs
/// must declare both streams dead instead of hanging.
TurbulenceScenarioConfig long_outage(const RepairLayerConfig& repair) {
  return with_episode(timed_episode(FaultKind::kOutage, "long-outage", 30.0, 30.0), repair);
}

TurbulenceScenarioConfig burst_loss(const RepairLayerConfig& repair) {
  return with_episode(burst_loss_episode(), repair);
}

/// The bottleneck throttled to 200 Kbps, then a 150 ms delay spike.
TurbulenceScenarioConfig congestion_dip(const RepairLayerConfig& repair) {
  FaultEpisode dip = timed_episode(FaultKind::kBandwidth, "congestion-dip", 25.0, 15.0);
  dip.bandwidth = BitRate::kbps(200);
  TurbulenceScenarioConfig cfg = with_episode(std::move(dip), repair);
  FaultEpisode lag = timed_episode(FaultKind::kExtraDelay, "delay-spike", 40.0, 10.0);
  lag.extra_delay = Duration::millis(150);
  cfg.episodes.push_back(std::move(lag));
  return cfg;
}

/// Router 3 dies mid-stream on a path with a detour bridging span [3,4];
/// the repair plane reroutes within detection delay + hold-down and
/// converges back when the router returns.
TurbulenceScenarioConfig router_down_reroute(const RepairLayerConfig& repair) {
  TurbulenceScenarioConfig cfg = with_episode(router_down_episode(3, 30.0, 10.0), repair);
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.mirror_server = true;  // dormant backstop; the detour should win
  return cfg;
}

/// The same failure without a detour. The repair plane still withdraws the
/// span's primaries, so the boundary routers answer with Destination
/// Unreachable instead of black-holing; the client fails over to the mirror
/// and resumes once the outage clears.
TurbulenceScenarioConfig router_down_failover(const RepairLayerConfig& repair) {
  TurbulenceScenarioConfig cfg = with_episode(router_down_episode(3, 30.0, 20.0), repair);
  cfg.repair = RouteRepairConfig{};
  cfg.repair_span_first = 3;
  cfg.repair_span_last = 4;
  cfg.mirror_server = true;
  // Enough PLAY budget (exponential backoff from 500 ms) to span the 20 s
  // outage after the ~8 s watchdog triggers the failover.
  cfg.recovery.max_play_attempts = 8;
  return cfg;
}

/// Asymmetric-capacity striping (the chain carries twice the detour's
/// share) while the detour's first router flaps: three down/up cycles the
/// health estimator must ride by draining subflow 1 onto the chain and
/// re-admitting it after each hold-down. The mirror stays dormant: flap
/// survival means zero failovers.
TurbulenceScenarioConfig multipath_flap(const RepairLayerConfig& repair) {
  TurbulenceScenarioConfig cfg = turbulence_base_config(repair);
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.mirror_server = true;
  cfg.multipath.enabled = true;
  cfg.multipath.primary_weight = 2;
  cfg.multipath.detour_weight = 1;
  // Striping's intended operating point includes NACK repair, whatever
  // `repair` says: media striped onto the flapping path before each drain
  // is re-requested over the surviving chain (with the reorder-tolerance
  // window keeping cross-path skew from spraying spurious NACKs).
  cfg.repair_layer.nack = true;
  for (const double start : {25.0, 37.0, 49.0})
    cfg.episodes.push_back(detour_down_episode(0, start, 6.0));
  return cfg;
}

constexpr TurbulenceScenario kScenarios[] = {
    {"short-outage", false, &short_outage},
    {"long-outage", false, &long_outage},
    {"burst-loss", false, &burst_loss},
    {"congestion-dip", false, &congestion_dip},
    {"router-down-reroute", false, &router_down_reroute},
    {"router-down-failover", true, &router_down_failover},
    {"multipath-flap", true, &multipath_flap},
};

}  // namespace

FaultEpisode router_down_episode(int router_index, double start_s, double duration_s) {
  FaultEpisode down = timed_episode(FaultKind::kRouterDown, "router-down", start_s, duration_s);
  down.router_index = router_index;
  return down;
}

FaultEpisode detour_down_episode(int detour_index, double start_s, double duration_s) {
  FaultEpisode down = router_down_episode(detour_index, start_s, duration_s);
  down.detour = true;
  down.label = "detour-down";
  return down;
}

FaultEpisode burst_loss_episode() {
  FaultEpisode burst = timed_episode(FaultKind::kBurstLoss, "burst-loss", 20.0, 25.0);
  burst.gilbert = GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
  return burst;
}

const TurbulenceScenario& turbulence_scenario(std::string_view name) {
  for (const TurbulenceScenario& s : kScenarios)
    if (s.name == name) return s;
  throw std::invalid_argument("no turbulence scenario '" + std::string(name) + "'");
}

}  // namespace streamlab
