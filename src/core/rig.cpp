#include "core/rig.hpp"

#include "players/server.hpp"
#include "trackers/tracker.hpp"

namespace streamlab {
namespace {

void publish_client(const StreamClient& client, obs::Registry& registry) {
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

void publish_server(const StreamServer& server, obs::Registry& registry) {
  const StreamServer::Stats& s = server.stats();
  const std::string prefix = server.obs_name() + ".";
  registry.counter(prefix + "scaling_switches").add(server.scaling_level_changes());
  registry.counter(prefix + "parity_sent").add(s.parity_packets);
  registry.counter(prefix + "retx_sent").add(s.retx_packets);
  registry.counter(prefix + "nacks_received").add(s.nacks_received);
}

}  // namespace

SessionRig::SessionRig(const Config& config) : net_(config.path) {
  Network& net = net_;
  if (config.obs != nullptr) net.attach_observer(*config.obs);
  if (config.auditor != nullptr) net.attach_auditor(*config.auditor);
  if (config.probe != nullptr) net.set_determinism_probe(config.probe);

  std::vector<Host*> hosts;
  hosts.reserve(config.sessions.size());
  for (const RigSession& s : config.sessions) hosts.push_back(&net.add_server(s.host));
  Host* mirror_host = config.mirror ? &net.add_server("mirror") : nullptr;

  if (config.probe_path && !hosts.empty()) {
    ping_ = run_ping(net, hosts.front()->address(), /*count=*/10);
    route_ = run_traceroute(net, hosts.front()->address());
  }

  if (config.route_repair) {
    repair_ = std::make_unique<RouteRepair>(net, *config.route_repair);
    if (config.repair_span_first >= 0 &&
        config.repair_span_last >= config.repair_span_first)
      repair_->protect(config.repair_span_first, config.repair_span_last);
  }

  const StreamClient::Config& player = config.player;
  const auto make = [&](Host& host, const EncodedClip& encoded, std::uint64_t rm_seed) {
    std::unique_ptr<StreamServer> server =
        make_server(host, encoded, player.wm, player.rm, rm_seed);
    if (player.scaling.enabled) server->enable_scaling(player.scaling);
    if (player.repair.enabled()) server->enable_repair(player.repair);
    return server;
  };
  sessions_.reserve(config.sessions.size());
  for (std::size_t i = 0; i < config.sessions.size(); ++i) {
    const RigSession& spec = config.sessions[i];
    Session& s = sessions_.emplace_back();
    const EncodedClip encoded = encode_clip(spec.clip, config.seed);
    s.server = make(*hosts[i], encoded, spec.rm_seed);
    // The mirror serves the same clip on the same port from its own host; a
    // failover PLAY carrying a resume offset continues the stream there.
    if (mirror_host != nullptr) s.mirror = make(*mirror_host, encoded, config.seed ^ 0x6D69);

    StreamClient::Config cc = player;
    cc.kind = spec.clip.player;
    cc.local_port = spec.client_port;
    if (cc.multipath.enabled && net.detour_hop_count() > 0) {
      // Striping needs a second path: alias addresses steer subflow 1 down
      // the detour branch without touching the primary routing. Only the
      // primary server stripes — a mirror epoch is already degraded, and the
      // client tears its multipath plane down at failover.
      const Network::MultipathEndpoints ep = net.enable_multipath(*hosts[i]);
      cc.multipath.client_alias = ep.client_alias;
      cc.multipath.server_alias = ep.server_alias;
      s.server->enable_multipath(cc.multipath);
      // Striping jitter would otherwise read as gaps; arm NACKs only after
      // the reorder-tolerance window proves a hole is real.
      if (cc.repair.nack && cc.repair.nack_reorder_tolerance == 0)
        cc.repair.nack_reorder_tolerance = cc.multipath.nack_reorder_tolerance;
    } else {
      cc.multipath = {};  // no second path to stripe over
    }
    if (s.mirror) cc.failover.mirrors.push_back(s.mirror->endpoint());
    s.client = std::make_unique<StreamClient>(net.client(), s.server->clip(),
                                              s.server->endpoint(), cc);
    if (config.trackers) s.tracker = std::make_unique<PlayerTracker>(*s.client);
  }

  if (config.capture) {
    Sniffer::Options options;
    options.snaplen = config.snaplen;
    options.capture_outbound = false;
    sniffer_ = std::make_unique<Sniffer>(net.client(), options, config.capture);
  }

  faults_ = std::make_unique<FaultScheduler>(net.loop(), net.bottleneck_link(), net);
  for (const FaultEpisode& e : config.episodes) faults_->add(e);
  faults_->arm();
}

SessionRig::~SessionRig() = default;

void SessionRig::start() {
  for (Session& s : sessions_) s.client->start();
  for (Session& s : sessions_)
    if (s.tracker) s.tracker->start();
}

void SessionRig::publish_stats(obs::Registry& registry) const {
  net_.publish_stats(registry);
  if (repair_) {
    registry.counter("repair.reroutes").add(repair_->stats().reroutes);
    registry.counter("repair.restores").add(repair_->stats().restores);
  }
  for (const Session& s : sessions_) {
    publish_client(*s.client, registry);
    publish_server(*s.server, registry);
    if (s.mirror) publish_server(*s.mirror, registry);
  }
}

}  // namespace streamlab
