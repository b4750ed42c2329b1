#include "congestion/experiment.hpp"

#include <optional>

#include "core/jobs.hpp"
#include "core/rig.hpp"
#include "players/server.hpp"
#include "trackers/tracker.hpp"

namespace streamlab {

namespace {

/// One clip streamed through the constrained bottleneck, where all loss
/// comes from the drop-tail queue. The rig is not started.
SessionRig::Config constrained_rig(const ClipInfo& clip, const CongestionConfig& config) {
  SessionRig::Config rc;
  rc.path.hop_count = config.hop_count;
  rc.path.one_way_propagation = config.one_way_propagation;
  rc.path.bottleneck_bandwidth = config.bottleneck;
  rc.path.queue_limit_bytes = config.queue_limit_bytes;
  rc.path.loss_probability = 0.0;
  rc.path.seed = config.seed;
  rc.seed = config.seed;
  rc.sessions.push_back({clip, "server", config.seed ^ 0x524D});
  rc.player.wm = config.wm;
  rc.player.rm = config.rm;
  return rc;
}

}  // namespace

CongestionResult run_congestion_experiment(const ClipInfo& clip,
                                           const CongestionConfig& config) {
  SessionRig::Config rc = constrained_rig(clip, config);
  rc.path.jitter_stddev = Duration::micros(200);
  rc.trackers = true;
  // Only the wire byte count and the capture span are read, so the sniffer
  // feeds a sink that keeps those instead of a capture.
  std::uint64_t wire_bytes = 0;
  std::optional<SimTime> first_frame;
  SimTime last_frame;
  rc.capture = [&](const CaptureRecord& record) {
    wire_bytes += record.original_length;
    if (!first_frame) first_frame = record.timestamp;
    last_frame = record.timestamp;
    return false;
  };
  rc.snaplen = 64;  // headers only; we need byte counts, not payloads
  SessionRig rig(rc);
  rig.start();
  // Under overload the transfer stretches: allow generous run-off.
  EventLoop& loop = rig.network().loop();
  loop.run_until(loop.now() + clip.length * 2 + Duration::seconds(120));
  const StreamServer& server = rig.server(0);
  const StreamClient& client = rig.client(0);

  CongestionResult result;
  result.clip = clip;
  result.bottleneck = config.bottleneck;
  result.offered_load = clip.encoded_rate / config.bottleneck;

  const auto sent = server.stats().packets_sent;
  const auto received = client.stats().packets_received;
  // Count at the datagram level the client could observe; fragments lost
  // upstream surface as incomplete datagrams below.
  result.packet_loss =
      sent == 0 ? 0.0
                : 1.0 - static_cast<double>(std::min<std::uint64_t>(received, sent)) /
                            static_cast<double>(sent);

  // Measurement interval: the wire capture span (valid even when overload
  // is so severe that no complete datagram ever reaches the application).
  const double duration = [&] {
    const double d = first_frame ? (last_frame - *first_frame).to_seconds() : 0.0;
    return d > 0.0 ? d : 1.0;
  }();

  // Throughput: every wire byte that reached the client NIC, orphaned
  // fragments included (measured by the sniffer, exactly as the study
  // would). Goodput: only media bytes the application actually received in
  // complete datagrams. The gap is header overhead plus the wasted
  // fragments Section 3.C warns about.
  result.throughput_kbps =
      static_cast<double>(wire_bytes) * 8.0 / duration / 1000.0;
  result.goodput_kbps =
      static_cast<double>(client.media_bytes_received()) * 8.0 / duration / 1000.0;
  result.wasted_kbps = std::max(0.0, result.throughput_kbps - result.goodput_kbps);

  result.reception_quality = rig.tracker(0).report().reception_quality();
  return result;
}

ScalingResult run_scaling_experiment(const ClipInfo& clip, const CongestionConfig& config) {
  SessionRig::Config rc = constrained_rig(clip, config);
  rc.player.scaling.enabled = true;
  SessionRig rig(rc);
  rig.start();
  EventLoop& loop = rig.network().loop();
  loop.run_until(loop.now() + clip.length * 2 + Duration::seconds(60));

  const StreamServer& server = rig.server(0);
  ScalingResult out;
  out.keep_fraction = server.scaling_keep_fraction();
  out.level_changes = server.scaling_level_changes();
  out.frames_thinned = server.frames_thinned();
  out.frames_rendered = rig.client(0).stats().frames_rendered;
  out.frames_total = static_cast<std::uint32_t>(server.clip().frames().size());
  out.reports = rig.client(0).receiver_reports_sent();
  const double sent = static_cast<double>(out.frames_total) - out.frames_thinned;
  out.quality_of_sent = sent > 0 ? 100.0 * out.frames_rendered / sent : 0.0;
  return out;
}

std::vector<CongestionResult> sweep_bottleneck(const ClipInfo& clip,
                                               const std::vector<double>& bottlenecks_kbps,
                                               CongestionConfig config) {
  std::vector<CongestionResult> out(bottlenecks_kbps.size());
  run_jobs(
      out.size(), /*workers=*/0,
      [&](std::size_t i, std::size_t) {
        CongestionConfig point = config;
        point.bottleneck = BitRate::kbps(bottlenecks_kbps[i]);
        out[i] = run_congestion_experiment(clip, point);
      },
      [](std::size_t) {});
  return out;
}

}  // namespace streamlab
