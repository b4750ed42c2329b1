// Turbulence scenario harness: the paper's comparison methodology run under
// *scripted* network turbulence instead of a stationary path. A scenario
// streams a clip (or a WM-vs-RM pair, Section 2.A) while a FaultScheduler
// plays impairment episodes — link flaps, burst-loss epochs, congestion
// (bandwidth) dips, delay spikes — onto the bottleneck link, then reports
// how each player's session machinery (delay buffer, PLAY retries,
// inactivity watchdog) survived: recovery time, rebuffering, frames lost
// during vs. after the episode, and sessions abandoned.
#pragma once

#include <chrono>
#include <optional>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "players/client.hpp"
#include "players/multipath.hpp"
#include "players/repair.hpp"
#include "sim/audit.hpp"
#include "sim/faults.hpp"
#include "sim/repair.hpp"

namespace streamlab {

class StreamServer;

struct TurbulenceScenarioConfig {
  PathConfig path;
  std::uint64_t seed = 1;
  /// Optional observability context; when set it is attached to the run's
  /// network before any session is constructed, so trace tracks cover the
  /// whole timeline, and every component's Stats is written into its
  /// registry once the run is over. One Obs per run — SimTime restarts at
  /// zero for every scenario.
  obs::Obs* obs = nullptr;
  /// Optional invariant auditor (sim/audit.hpp): attached to the run's loop
  /// and links before any session starts, fed the trial-end conservation
  /// ledgers after the loop drains. One fresh Auditor per scenario run.
  audit::Auditor* auditor = nullptr;
  /// Optional determinism probe, folded over every packet reaching a client
  /// NIC. Two runs of the same seed must produce equal digests.
  audit::DeterminismProbe* probe = nullptr;
  /// Per-trial sim-event budget; 0 = unlimited. A trial that exhausts it
  /// stops where it stands (TurbulenceRunResult::budget_exhausted) — the
  /// collected metrics cover the truncated timeline, and link conservation
  /// still balances because the ledger counts queued and in-flight packets.
  std::uint64_t max_sim_events = 0;
  /// Per-trial wall-clock budget; zero = unlimited. Checked between event
  /// chunks, so overrun is bounded by one chunk's execution time.
  std::chrono::milliseconds max_wall_time{0};
  WmBehavior wm;
  RmBehavior rm;
  /// Client-side session recovery knobs. The scenario default (unlike the
  /// plain experiment default) arms the inactivity watchdog, since dead
  /// sessions are precisely what turbulence runs must detect.
  SessionRecoveryConfig recovery{true, Duration::millis(500), 2.0, 5,
                                 Duration::seconds(8)};
  /// Play with the products' stall behaviour (Section 3.F) so the delay
  /// buffer's protection during an episode is visible as stall time.
  bool rebuffering = true;
  /// Tighter than the client default: a frame whose data was lost to an
  /// episode (never retransmitted) should be skipped after a short freeze,
  /// not hold the picture for 10 s.
  Duration max_stall = Duration::seconds(2);
  /// Episode script, applied to the path's bottleneck link in start order.
  /// kRouterDown episodes target `FaultEpisode::router_index` instead.
  std::vector<FaultEpisode> episodes;
  /// Run-off after the nominal clip length.
  Duration extra_sim_time = Duration::seconds(90);

  // --- Self-healing knobs (router-down turbulence) ---
  /// Deterministic route-repair control plane (sim/repair.hpp). When set, a
  /// RouteRepair protects the path's detour span (if `path.detour` is
  /// configured) and/or the explicit span below, withdrawing the primaries
  /// through downed routers after a detection delay and restoring them
  /// after hold-down. nullopt = no control plane (silent black hole).
  std::optional<RouteRepairConfig> repair;
  /// Chain-router span [first, last] to protect when the path has no detour
  /// (the withdraw then produces Destination Unreachable — the failover
  /// fast-fail signal). Negative = protect only the detour span.
  int repair_span_first = -1;
  int repair_span_last = -1;
  /// Stand up a mirror server beside the primary and hand its endpoint to
  /// the client, which fails over to it (resuming at the contiguous media
  /// position) when the primary path dies. Clip runs only; the paired
  /// comparison harness ignores this.
  bool mirror_server = false;
  /// Consecutive Destination Unreachable packets that fast-fail the client
  /// onto the mirror (see FailoverConfig).
  int icmp_unreachable_threshold = 3;

  // --- Loss repair layer (players/repair.hpp) ---
  /// FEC + NACK policy applied to every server (mirror included) and client
  /// of the scenario. The default leaves repair off, preserving the
  /// unrepaired baseline byte for byte.
  RepairLayerConfig repair_layer;

  // --- Multipath striping (players/multipath.hpp) ---
  /// When enabled and the path has a detour, the primary server stripes the
  /// stream across the chain and the detour branch under health-driven
  /// weights; the client reassembles global order through a bounded join
  /// buffer. The mirror (if any) stays single-path — a failover epoch is
  /// already a degraded state. Default off: the single-path baseline is
  /// byte-identical to previous behaviour.
  MultipathConfig multipath;
};

/// How one player session fared through the scripted turbulence: the
/// client's own statistics plus what only the servers or the episode script
/// can tell.
struct SessionRecoveryMetrics : StreamClient::Stats {
  ClipInfo clip;

  // Episode attribution.
  /// Gap from the end of the first episode to the next data packet
  /// delivered afterwards; unset when no data ever followed the episode.
  std::optional<Duration> time_to_recover;
  std::uint32_t frames_dropped_during_episodes = 0;  ///< decode deadline inside a window
  std::uint32_t frames_dropped_after_episodes = 0;   ///< after the last covering window
  /// Stall time overlapping a kRouterDown episode window — the rebuffering
  /// attributable to router failure rather than ambient turbulence.
  Duration stall_during_router_down;

  // Server side: retransmissions summed over the primary and the mirror,
  // striping from the primary.
  std::uint64_t retransmissions_sent = 0;   ///< retx answered
  std::uint64_t retx_suppressed_pacer = 0;  ///< retx dropped by the pacer
  std::uint64_t path_switches = 0;          ///< healthy<->draining transitions
  bool multipath_degraded = false;          ///< every subflow draining at run end

  bool operator==(const SessionRecoveryMetrics&) const = default;

  /// One subflow's media rate over the nominal clip length: comparable
  /// across runs of the same clip however long the tail dragged on.
  double goodput_kbps(int subflow_id) const {
    const double secs = clip.length.to_seconds();
    return secs > 0.0
               ? static_cast<double>(subflow[subflow_id].media_bytes) * 8.0 / secs / 1000.0
               : 0.0;
  }
  /// Rebuffering exposure: stall time per nominal clip second.
  double rebuffer_ratio() const {
    const double len = clip.length.to_seconds();
    return len <= 0.0 ? 0.0 : stall_time.to_seconds() / len;
  }

  /// abandoned or declared dead: the session did not survive the turbulence.
  bool session_failed() const { return abandoned || stream_dead; }

  /// Fraction of the packets the network lost that the repair layer
  /// delivered anyway: recovered / (recovered + still-lost).
  double recovery_ratio() const {
    const std::uint64_t denom = packets_recovered() + packets_lost;
    return denom == 0 ? 0.0 : static_cast<double>(packets_recovered()) /
                                  static_cast<double>(denom);
  }
  /// Repair bandwidth overhead: repair wire bytes per media wire byte.
  double repair_overhead() const {
    const std::uint64_t media = total_wire_bytes() - repair_wire_bytes();
    return media == 0 ? 0.0
                      : static_cast<double>(repair_wire_bytes()) / static_cast<double>(media);
  }
};

/// One scenario run: per-player metrics plus the episode ledger.
struct TurbulenceRunResult {
  std::optional<SessionRecoveryMetrics> real;
  std::optional<SessionRecoveryMetrics> media;
  std::vector<FaultScheduler::EpisodeRecord> episodes;
  /// Events executed by this run's loop.
  std::uint64_t sim_events = 0;
  /// The run was truncated by max_sim_events / max_wall_time.
  bool budget_exhausted = false;
  /// Route-repair control-plane transitions (zero without `repair`).
  std::uint64_t reroutes = 0;
  std::uint64_t route_restores = 0;

  int sessions_abandoned() const {
    return (real && real->session_failed() ? 1 : 0) +
           (media && media->session_failed() ? 1 : 0);
  }
};

// --- Metrics ---
// A component's Stats record is the only count of its metrics. A run with
// an Obs writes each component into the registry once, when it is over:
// Network::publish_stats for the links and routers, and these for the rest.

/// "player.<real|media>.*": play_attempts, play_retries (play_attempts - 1),
/// watchdog_fired, rebuffer_events, failovers, icmp_unreachables,
/// packets_recovered, nacks_sent, nacks_suppressed and path_reports_sent,
/// plus the histogram repair_latency_ms (5 ms buckets) of every recovery.
void publish_stats(const StreamClient& client, obs::Registry& registry);
/// "server.<rm|wm|port>.*": scaling_switches, parity_sent, retx_sent and
/// nacks_received. A mirror on the same port adds into the same names.
void publish_stats(const StreamServer& server, obs::Registry& registry);
/// "repair.reroutes" and "repair.restores".
void publish_stats(const RouteRepair& repair, obs::Registry& registry);

/// Streams one clip over a fresh faulted network.
TurbulenceRunResult run_turbulence_clip(const ClipInfo& clip,
                                        const TurbulenceScenarioConfig& config);

/// The paired form: both formats of one clip set streamed simultaneously
/// through the same scripted turbulence (the paper's side-by-side setup).
TurbulenceRunResult run_turbulence_pair(const ClipSet& set, RateTier tier,
                                        const TurbulenceScenarioConfig& config);

// --- Scenario catalog ---
// The scripted turbulence set turbulence_lab runs and the tests read,
// declared once. Every scenario starts from turbulence_base_config().

/// 8 hops, 20 ms one-way propagation, seed 42 and an 8 s inactivity
/// watchdog, with `repair` as the loss repair layer.
TurbulenceScenarioConfig turbulence_base_config(const RepairLayerConfig& repair = {});

/// Chain router `router_index` fully offline from `start_s` for `duration_s`.
FaultEpisode router_down_episode(int router_index, double start_s, double duration_s);
/// The same for router `detour_index` of the detour branch.
FaultEpisode detour_down_episode(int detour_index, double start_s, double duration_s);
/// A 25 s Gilbert–Elliott burst-loss epoch from t=20 s (a congested peering
/// point).
FaultEpisode burst_loss_episode();

struct TurbulenceScenario {
  std::string_view name;
  /// Run once per player with run_turbulence_clip, named `<name>-real` and
  /// `<name>-media`: mirror failover and striping are single-server per
  /// session. Otherwise the scenario runs as the pair.
  bool per_player = false;
  /// The scenario's config with `repair` as its loss repair layer.
  TurbulenceScenarioConfig (*config)(const RepairLayerConfig& repair) = nullptr;
};

/// The catalog scenario called `name`: short-outage, long-outage,
/// burst-loss, congestion-dip, router-down-reroute, router-down-failover or
/// multipath-flap. Throws std::invalid_argument for any other name.
const TurbulenceScenario& turbulence_scenario(std::string_view name);

}  // namespace streamlab
