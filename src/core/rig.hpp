// The session rig: the testbed of Section 2.A, built in one place. Co-located
// servers stream over one path to one client; a tracker may poll each
// player, a sniffer may tap the client NIC, a route-repair plane may guard
// the path and a fault scheduler plays impairment episodes onto its
// bottleneck. Every measurement run (the study's clip and pair runs, the
// turbulence scenarios, the congestion, friendliness and scaling
// experiments) builds its testbed here, then starts it and runs the loop;
// the rig outlives the run, so each component's Stats, the ledgers and the
// capture sink can be read afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "media/catalog.hpp"
#include "obs/obs.hpp"
#include "pcap/sniffer.hpp"
#include "players/client.hpp"
#include "sim/audit.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/repair.hpp"
#include "sim/tools.hpp"

namespace streamlab {

class PlayerTracker;
class StreamServer;

/// One session of a rig: a clip streamed from its own server host.
struct RigSession {
  ClipInfo clip;
  std::string host;               ///< the server host's name (labels its link)
  std::uint64_t rm_seed = 0;      ///< RmServer seed (RealPlayer clips only)
  std::uint16_t client_port = 0;  ///< 0 = the player's default port
};

class SessionRig {
 public:
  struct Config {
    PathConfig path;  ///< taken as given, seed included
    /// Encodes every clip; the mirror's RmServer is seeded from it too.
    std::uint64_t seed = 1;
    std::vector<RigSession> sessions;
    /// Optional instrumentation, attached before any host is added so the
    /// trace, the audit and the replay digest cover the whole timeline.
    obs::Obs* obs = nullptr;
    audit::Auditor* auditor = nullptr;
    audit::DeterminismProbe* probe = nullptr;
    /// A "mirror" host serves every clip as well, and each client fails
    /// over to it.
    bool mirror = false;
    /// Ping and traceroute the first server before any session exists, as
    /// the paper does before each run.
    bool probe_path = false;
    /// The route-repair control plane; it protects the path's detour span,
    /// and chain span [repair_span_first, repair_span_last] when that is set.
    std::optional<RouteRepairConfig> route_repair;
    int repair_span_first = -1;
    int repair_span_last = -1;
    /// Every client's config. The rig sets its kind, port, failover mirror
    /// and multipath aliases per session; every server (the mirror
    /// included) takes its wm, rm, scaling and repair policies, and the
    /// primary server its multipath policy when the path has a detour.
    StreamClient::Config player;
    bool trackers = false;  ///< a PlayerTracker on every client
    /// When set, a sniffer on the client NIC hands it each inbound frame,
    /// cut to `snaplen` bytes, as it is captured; the frames it keeps are
    /// take_capture()'s.
    Sniffer::Sink capture;
    std::uint32_t snaplen = 65535;
    /// Played onto the bottleneck link (kRouterDown: onto a router).
    std::vector<FaultEpisode> episodes;
  };

  /// Builds every component in one fixed order, which is part of the
  /// determinism contract: network, instrumentation, server hosts, mirror
  /// host, path probe, route-repair plane, then per session its server,
  /// mirror, multipath aliases, client and tracker, then the sniffer and
  /// the armed fault scheduler. Nothing is started.
  explicit SessionRig(const Config& config);
  ~SessionRig();
  SessionRig(const SessionRig&) = delete;
  SessionRig& operator=(const SessionRig&) = delete;

  /// Starts every client, then every tracker: every player starts at once
  /// (Section 2.A).
  void start();

  Network& network() { return net_; }
  StreamServer& server(std::size_t i) { return *sessions_[i].server; }
  /// The session's mirror server, or nullptr without Config::mirror.
  const StreamServer* mirror(std::size_t i) const { return sessions_[i].mirror.get(); }
  StreamClient& client(std::size_t i) { return *sessions_[i].client; }
  const PlayerTracker& tracker(std::size_t i) const { return *sessions_[i].tracker; }
  /// nullptr without Config::route_repair.
  RouteRepair* route_repair() { return repair_.get(); }
  FaultScheduler& faults() { return *faults_; }
  /// The path probe's results; empty without Config::probe_path.
  const PingResult& ping() const { return ping_; }
  const TracerouteResult& route() const { return route_; }
  /// The frames the capture sink kept (Config::capture); empty without one.
  CaptureTrace take_capture() { return sniffer_ ? sniffer_->take_trace() : CaptureTrace{}; }

  /// Writes every component's Stats record into `registry`, once, when the
  /// run is over: the links and routers (Network::publish_stats), then
  /// "repair.reroutes" and "repair.restores", then per session
  /// "player.<real|media>.*" (play_attempts, play_retries, watchdog_fired,
  /// rebuffer_events, failovers, icmp_unreachables, packets_recovered,
  /// nacks_sent, nacks_suppressed, path_reports_sent and the histogram
  /// repair_latency_ms) and "server.<rm|wm|port>.*" (scaling_switches,
  /// parity_sent, retx_sent, nacks_received; a mirror adds into its
  /// server's names).
  void publish_stats(obs::Registry& registry) const;

 private:
  struct Session {
    std::unique_ptr<StreamServer> server;
    std::unique_ptr<StreamServer> mirror;
    std::unique_ptr<StreamClient> client;
    std::unique_ptr<PlayerTracker> tracker;
  };

  Network net_;
  PingResult ping_;
  TracerouteResult route_;
  std::unique_ptr<RouteRepair> repair_;
  std::vector<Session> sessions_;
  std::unique_ptr<Sniffer> sniffer_;
  std::unique_ptr<FaultScheduler> faults_;
};

}  // namespace streamlab
