#include "core/experiment.hpp"

#include <algorithm>

#include "dissect/dissector.hpp"
#include "pcap/sniffer.hpp"
#include "players/server.hpp"
#include "trackers/tracker.hpp"

namespace streamlab {
namespace {

/// The clip and pair forms seed the path from the experiment seed.
ExperimentConfig seeded_path(const ExperimentConfig& config) {
  ExperimentConfig seeded = config;
  seeded.path.seed = config.seed;
  return seeded;
}

}  // namespace

StreamRunResult stream_sessions(const std::vector<SessionSpec>& specs, bool probe_path,
                                const ExperimentConfig& config) {
  Network net(config.path);
  std::vector<Host*> hosts;
  hosts.reserve(specs.size());
  for (const SessionSpec& spec : specs)
    hosts.push_back(&net.add_server("server-" + spec.clip.id()));

  // Path characterisation before streaming, as the paper does with
  // ping/tracert before each run.
  StreamRunResult result;
  if (probe_path && !hosts.empty()) {
    result.ping = run_ping(net, hosts.front()->address(), /*count=*/10);
    result.route = run_traceroute(net, hosts.front()->address());
  }

  struct Session {
    std::unique_ptr<StreamServer> server;
    std::unique_ptr<StreamClient> client;
    std::unique_ptr<PlayerTracker> tracker;
  };
  std::vector<Session> sessions;
  sessions.reserve(specs.size());
  Duration longest = Duration::zero();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ClipInfo& clip = specs[i].clip;
    Session& s = sessions.emplace_back();
    s.server = make_server(*hosts[i], encode_clip(clip, config.seed), config.wm,
                           config.rm, specs[i].rm_seed);
    StreamClient::Config cc;
    cc.kind = clip.player;
    cc.wm = config.wm;
    cc.rm = config.rm;
    cc.local_port = specs[i].client_port;
    s.client = std::make_unique<StreamClient>(net.client(), s.server->clip(),
                                              s.server->endpoint(), cc);
    s.tracker = std::make_unique<PlayerTracker>(*s.client);
    longest = std::max(longest, clip.length);
  }

  // Each captured frame is dissected once, as it arrives, and offered to
  // every session's flow; the frame itself is kept only for keep_capture.
  std::vector<FlowTrace> flows(specs.size());
  std::optional<CaptureTrace> capture;
  if (config.keep_capture) capture.emplace(config.snaplen);
  Sniffer::Options sniff_opts;
  sniff_opts.snaplen = config.snaplen;
  sniff_opts.capture_outbound = false;  // the study analyses inbound traffic
  Sniffer sniffer(net.client(), sniff_opts, [&](CaptureRecord&& record) {
    const DissectedPacket packet = dissect(record);
    for (std::size_t i = 0; i < sessions.size(); ++i)
      flows[i].add(packet, sessions[i].server->endpoint().ip, sessions[i].client->port());
    if (capture) capture->add(std::move(record));
  });

  // Every player starts simultaneously (Section 2.A).
  for (Session& s : sessions) s.client->start();
  for (Session& s : sessions) s.tracker->start();
  net.loop().run_until(net.loop().now() + longest + config.extra_sim_time);

  result.sessions.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Session& s = sessions[i];
    ClipRunResult& r = result.sessions.emplace_back();
    r.clip = specs[i].clip;
    r.tracker = s.tracker->report();
    r.flow = std::move(flows[i]);
    r.buffering = analyze_buffering(r.flow.bandwidth_timeline(config.bandwidth_window),
                                    config.bandwidth_window);
    r.server_streaming_duration = s.server->streaming_duration();
    r.app_packets = s.client->take_packets();  // last: the client's counters read them
  }
  result.capture = std::move(capture);
  return result;
}

ClipRunResult run_single_clip(const ClipInfo& clip, const ExperimentConfig& config) {
  StreamRunResult run = stream_sessions({{clip, config.seed ^ 0x524D}},
                                        /*probe_path=*/false, seeded_path(config));
  ClipRunResult result = std::move(run.sessions.front());
  result.capture = std::move(run.capture);
  return result;
}

PairRunResult run_clip_pair(const ClipSet& set, RateTier tier,
                            const ExperimentConfig& config) {
  const auto pair = set.pair(tier);
  // A tier the set lacks: callers check tiers via the catalog first, so
  // this is a programming error guard.
  if (!pair) return {};

  StreamRunResult run = stream_sessions(
      {{pair->first, config.seed ^ 0x524D}, {pair->second, config.seed ^ 0x524D}},
      /*probe_path=*/true, seeded_path(config));
  PairRunResult result;
  result.real = std::move(run.sessions[0]);
  result.media = std::move(run.sessions[1]);
  result.ping = std::move(run.ping);
  result.route = std::move(run.route);
  // The pair shares one capture; it travels with the Real result.
  result.real.capture = std::move(run.capture);
  return result;
}

}  // namespace streamlab
