#include "core/turbulence.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "players/server.hpp"

namespace streamlab {
namespace {

struct FaultedSession {
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<StreamServer> mirror;  ///< failover target, when configured
  std::unique_ptr<StreamClient> client;
};

FaultedSession make_session(Network& net, Host& server_host, Host* mirror_host,
                            const ClipInfo& clip,
                            const TurbulenceScenarioConfig& config) {
  FaultedSession s;
  const EncodedClip encoded = encode_clip(clip, config.seed);
  s.server =
      make_server(server_host, encoded, config.wm, config.rm, config.seed ^ 0x524D);
  if (config.repair_layer.enabled()) s.server->enable_repair(config.repair_layer);
  if (mirror_host != nullptr) {
    // The mirror serves the same clip on the same port from its own host; a
    // failover PLAY carrying a resume offset continues the stream there.
    s.mirror =
        make_server(*mirror_host, encoded, config.wm, config.rm, config.seed ^ 0x6D69);
    if (config.repair_layer.enabled()) s.mirror->enable_repair(config.repair_layer);
  }

  StreamClient::Config cc;
  cc.kind = clip.player;
  cc.wm = config.wm;
  cc.rm = config.rm;
  cc.rebuffering = config.rebuffering;
  cc.max_stall = config.max_stall;
  cc.recovery = config.recovery;
  cc.repair = config.repair_layer;
  if (config.multipath.enabled && net.detour_hop_count() > 0) {
    // Striping needs a second path: alias addresses steer subflow 1 down
    // the detour branch without touching the primary routing. Only the
    // primary server stripes — a mirror epoch is already degraded, and the
    // client tears its multipath plane down at failover.
    const Network::MultipathEndpoints ep = net.enable_multipath(server_host);
    MultipathConfig mp = config.multipath;
    mp.client_alias = ep.client_alias;
    mp.server_alias = ep.server_alias;
    s.server->enable_multipath(mp);
    cc.multipath = mp;
    // Striping jitter would otherwise read as gaps; arm NACKs only after
    // the reorder-tolerance window proves a hole is real.
    if (cc.repair.nack && cc.repair.nack_reorder_tolerance == 0)
      cc.repair.nack_reorder_tolerance = mp.nack_reorder_tolerance;
  }
  if (mirror_host != nullptr) {
    cc.failover.mirrors.push_back(s.mirror->endpoint());
    cc.failover.icmp_unreachable_threshold = config.icmp_unreachable_threshold;
  }
  s.client = std::make_unique<StreamClient>(net.client(), s.server->clip(),
                                            s.server->endpoint(), cc);
  return s;
}

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

/// Attaches the optional auditor/probe instrumentation before any session
/// event is scheduled, so the audit and the replay digest cover the whole
/// timeline.
void attach_instrumentation(Network& net, const TurbulenceScenarioConfig& config) {
  if (config.obs != nullptr) net.attach_observer(*config.obs);
  if (config.auditor != nullptr) net.attach_auditor(*config.auditor);
  if (config.probe != nullptr) net.set_determinism_probe(config.probe);
}

/// Builds the optional route-repair control plane. The RouteRepair ctor
/// protects the detour span when the path has one; an explicit
/// repair_span_first/last protects a chain span as well (the no-detour
/// fast-fail setup).
std::unique_ptr<RouteRepair> make_repair(Network& net,
                                         const TurbulenceScenarioConfig& config) {
  if (!config.repair) return nullptr;
  auto repair = std::make_unique<RouteRepair>(net, *config.repair);
  if (config.repair_span_first >= 0 &&
      config.repair_span_last >= config.repair_span_first)
    repair->protect(config.repair_span_first, config.repair_span_last);
  return repair;
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

/// A clip and the name of the host that serves it (the name labels the
/// host's link in obs traces and audit reports).
struct ServedClip {
  ClipInfo clip;
  const char* host;
};

/// The clip and pair forms: every clip streams from its own server over one
/// path, and one fault schedule on the bottleneck link hits them all — the
/// "same path, same turbulence" comparison the paper's simultaneous runs
/// were designed to guarantee. With `mirror`, a mirror host serves each
/// clip too, for failover.
TurbulenceRunResult run_sessions(const std::vector<ServedClip>& served, bool mirror,
                                 const TurbulenceScenarioConfig& config) {
  PathConfig path = config.path;
  path.seed = config.seed;
  Network net(path);
  attach_instrumentation(net, config);
  std::vector<Host*> hosts;
  for (const ServedClip& c : served) hosts.push_back(&net.add_server(c.host));
  Host* mirror_host = mirror ? &net.add_server("mirror") : nullptr;
  auto repair = make_repair(net, config);

  std::vector<FaultedSession> sessions;
  Duration longest = Duration::zero();
  for (std::size_t i = 0; i < served.size(); ++i) {
    sessions.push_back(make_session(net, *hosts[i], mirror_host, served[i].clip, config));
    longest = std::max(longest, served[i].clip.length);
  }

  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  for (const FaultEpisode& e : config.episodes) faults.add(e);
  faults.arm();

  for (FaultedSession& s : sessions) s.client->start();
  TurbulenceRunResult result;
  run_budgeted(net.loop(), run_deadline(net.loop(), longest, config), config, result);
  // Close any episode whose obs span is still open at the horizon (a budget
  // truncation can stop the loop mid-episode) and run the trial-end ledgers.
  faults.finish();
  if (repair) repair->finish();
  if (config.auditor != nullptr) net.audit_finalize(*config.auditor);
  // Each component's Stats record is the only count of its metrics; it
  // reaches the run's registry here, once, when the run is over.
  if (config.obs != nullptr) {
    obs::Registry& registry = config.obs->registry();
    net.publish_stats(registry);
    if (repair) publish_stats(*repair, registry);
    for (const FaultedSession& s : sessions) {
      publish_stats(*s.client, registry);
      publish_stats(*s.server, registry);
      if (s.mirror) publish_stats(*s.mirror, registry);
    }
  }

  if (repair) {
    result.reroutes = repair->stats().reroutes;
    result.route_restores = repair->stats().restores;
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    const ClipInfo& clip = served[i].clip;
    const FaultedSession& s = sessions[i];
    (clip.player == PlayerKind::kMediaPlayer ? result.media : result.real) =
        collect(clip, *s.client, *s.server, s.mirror.get(), config.episodes);
  }
  result.episodes = faults.records();
  return result;
}

}  // namespace

void publish_stats(const StreamClient& client, obs::Registry& registry) {
  const StreamClient::Stats s = client.stats();
  const std::string prefix = client.obs_name() + ".";
  registry.counter(prefix + "play_attempts").add(s.play_attempts);
  registry.counter(prefix + "play_retries").add(s.play_attempts > 0 ? s.play_attempts - 1 : 0);
  registry.counter(prefix + "watchdog_fired").add(s.watchdog_fired);
  registry.counter(prefix + "rebuffer_events").add(s.rebuffer_events);
  registry.counter(prefix + "failovers").add(s.failovers);
  registry.counter(prefix + "icmp_unreachables").add(s.icmp_unreachables);
  registry.counter(prefix + "packets_recovered").add(s.packets_recovered());
  registry.counter(prefix + "nacks_sent").add(s.nacks_sent);
  registry.counter(prefix + "nacks_suppressed").add(s.nack_suppressed);
  registry.counter(prefix + "path_reports_sent").add(s.path_reports_sent);
  obs::Histogram latency = registry.histogram(prefix + "repair_latency_ms", 5.0, 100);
  for (const Duration d : client.repair_latencies()) latency.record(d.to_millis());
}

void publish_stats(const StreamServer& server, obs::Registry& registry) {
  const StreamServer::Stats& s = server.stats();
  const std::string prefix = server.obs_name() + ".";
  registry.counter(prefix + "scaling_switches").add(server.scaling_level_changes());
  registry.counter(prefix + "parity_sent").add(s.parity_packets);
  registry.counter(prefix + "retx_sent").add(s.retx_packets);
  registry.counter(prefix + "nacks_received").add(s.nacks_received);
}

void publish_stats(const RouteRepair& repair, obs::Registry& registry) {
  registry.counter("repair.reroutes").add(repair.stats().reroutes);
  registry.counter("repair.restores").add(repair.stats().restores);
}

TurbulenceRunResult run_turbulence_clip(const ClipInfo& clip,
                                        const TurbulenceScenarioConfig& config) {
  return run_sessions({{clip, "server"}}, config.mirror_server, config);
}

TurbulenceRunResult run_turbulence_pair(const ClipSet& set, RateTier tier,
                                        const TurbulenceScenarioConfig& config) {
  const auto pair = set.pair(tier);
  if (!pair) return {};
  return run_sessions({{pair->first, "real-server"}, {pair->second, "media-server"}},
                      /*mirror=*/false, config);
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
