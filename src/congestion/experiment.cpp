#include "congestion/experiment.hpp"

#include <optional>

#include "core/jobs.hpp"
#include "pcap/sniffer.hpp"
#include "players/server.hpp"
#include "trackers/tracker.hpp"

namespace streamlab {

CongestionResult run_congestion_experiment(const ClipInfo& clip,
                                           const CongestionConfig& config) {
  PathConfig path;
  path.hop_count = config.hop_count;
  path.one_way_propagation = config.one_way_propagation;
  path.bottleneck_bandwidth = config.bottleneck;
  path.queue_limit_bytes = config.queue_limit_bytes;
  path.loss_probability = 0.0;  // all loss comes from the drop-tail queue
  path.jitter_stddev = Duration::micros(200);
  path.seed = config.seed;

  Network net(path);
  Host& server_host = net.add_server("server");
  const auto server = make_server(server_host, encode_clip(clip, config.seed), config.wm,
                                 config.rm, config.seed ^ 0x524D);

  StreamClient::Config cc;
  cc.kind = clip.player;
  cc.wm = config.wm;
  cc.rm = config.rm;
  StreamClient client(net.client(), server->clip(), server->endpoint(), cc);
  PlayerTracker tracker(client);

  // Only the wire byte count and the capture span are read, so the sniffer
  // feeds a sink that keeps those instead of a capture.
  std::uint64_t wire_bytes = 0;
  std::optional<SimTime> first_frame;
  SimTime last_frame;
  Sniffer::Options sniff_opts;
  sniff_opts.snaplen = 64;  // headers only; we need byte counts, not payloads
  sniff_opts.capture_outbound = false;
  Sniffer sniffer(net.client(), sniff_opts, [&](CaptureRecord&& record) {
    wire_bytes += record.original_length;
    if (!first_frame) first_frame = record.timestamp;
    last_frame = record.timestamp;
  });

  client.start();
  tracker.start();
  // Under overload the transfer stretches: allow generous run-off.
  net.loop().run_until(net.loop().now() + clip.length * 2 + Duration::seconds(120));

  CongestionResult result;
  result.clip = clip;
  result.bottleneck = config.bottleneck;
  result.offered_load = clip.encoded_rate / config.bottleneck;

  const auto sent = server->stats().packets_sent;
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

  result.reception_quality = tracker.report().reception_quality();
  return result;
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
