#include "core/experiment.hpp"

#include <algorithm>

#include "core/rig.hpp"
#include "dissect/dissector.hpp"
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
  SessionRig::Config rc;
  rc.path = config.path;
  rc.seed = config.seed;
  for (const SessionSpec& spec : specs)
    rc.sessions.push_back({spec.clip, "server-" + spec.clip.id(), spec.rm_seed, spec.client_port});
  rc.probe_path = probe_path;
  rc.player.wm = config.wm;
  rc.player.rm = config.rm;
  rc.trackers = true;
  // Each captured frame is dissected once, as it arrives, and offered to
  // every session's flow; the sniffer keeps the frame only for
  // keep_capture. The sink first runs inside the loop, once the rig below
  // exists.
  std::vector<FlowTrace> flows(specs.size());
  std::optional<SessionRig> rig;
  rc.capture = [&](const CaptureRecord& record) {
    const DissectedPacket packet = dissect(record);
    for (std::size_t i = 0; i < flows.size(); ++i)
      flows[i].add(packet, rig->server(i).endpoint().ip, rig->client(i).port());
    return config.keep_capture;
  };
  rc.snaplen = config.snaplen;
  rig.emplace(rc);

  Duration longest = Duration::zero();
  for (const SessionSpec& spec : specs) longest = std::max(longest, spec.clip.length);
  rig->start();
  EventLoop& loop = rig->network().loop();
  loop.run_until(loop.now() + longest + config.extra_sim_time);

  StreamRunResult result;
  result.ping = rig->ping();
  result.route = rig->route();
  result.sessions.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ClipRunResult& r = result.sessions.emplace_back();
    r.clip = specs[i].clip;
    r.tracker = rig->tracker(i).report();
    r.flow = std::move(flows[i]);
    r.buffering = analyze_buffering(r.flow.bandwidth_timeline(config.bandwidth_window),
                                    config.bandwidth_window);
    r.server_streaming_duration = rig->server(i).streaming_duration();
    r.app_packets = rig->client(i).take_packets();  // last: the client's counters read them
  }
  if (config.keep_capture) result.capture = rig->take_capture();
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
