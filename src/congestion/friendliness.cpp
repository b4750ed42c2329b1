#include "congestion/friendliness.hpp"

#include <algorithm>

#include "core/rig.hpp"
#include "players/server.hpp"
#include "tcp/receiver.hpp"

namespace streamlab {

FriendlinessResult run_friendliness_experiment(const ClipInfo& clip,
                                               const FriendlinessConfig& config) {
  SessionRig::Config rc;
  rc.path.hop_count = config.hop_count;
  rc.path.one_way_propagation = config.one_way_propagation;
  rc.path.bottleneck_bandwidth = config.bottleneck;
  rc.path.queue_limit_bytes = config.queue_limit_bytes;
  rc.path.loss_probability = 0.0;
  rc.path.seed = config.seed;
  rc.seed = config.seed;
  rc.sessions.push_back({clip, "media-server", config.seed ^ 0x524D});
  rc.player.wm = config.wm;
  rc.player.rm = config.rm;
  SessionRig rig(rc);
  Network& net = rig.network();
  Host& tcp_host = net.add_server("tcp-server");

  // TCP bulk transfer in the same downstream direction (server -> client):
  // the *sender* sits on the far host, the sink on the client.
  TcpDemux client_demux(net.client());
  TcpDemux server_demux(tcp_host);
  TcpBulkReceiver tcp_sink(client_demux, 5001);
  // Effectively long-lived: enough bytes to outlast the clip at link rate.
  const std::uint64_t tcp_bytes = static_cast<std::uint64_t>(
      config.bottleneck.bytes_in(clip.length + Duration::seconds(60)));
  TcpBulkSender tcp_sender(server_demux, 40001,
                           Endpoint{net.client().address(), 5001}, tcp_bytes,
                           config.tcp);

  // Snapshot the TCP sink's byte counter once per second so shares can be
  // evaluated over the exact media contention window afterwards.
  std::vector<std::pair<SimTime, std::uint64_t>> tcp_progress;
  std::function<void()> sample = [&] {
    tcp_progress.emplace_back(net.loop().now(), tcp_sink.bytes_received());
    net.loop().post_in(Duration::seconds(1), sample);
  };
  net.loop().post_in(Duration::seconds(1), sample);

  tcp_sender.start();
  rig.start();
  net.loop().run_until(net.loop().now() + clip.length + Duration::seconds(60));

  FriendlinessResult result;
  result.clip = clip;
  result.bottleneck = config.bottleneck;
  result.fair_share_kbps = config.bottleneck.to_kbps() / 2.0;

  const StreamClient& media_client = rig.client(0);

  if (!media_client.first_data_time() || !media_client.last_data_time())
    return result;
  const SimTime t0 = *media_client.first_data_time();
  const SimTime t1 = *media_client.last_data_time();
  const double window = (t1 - t0).to_seconds();
  if (window <= 1.0) return result;
  result.contention_seconds = window;

  result.media_share_kbps =
      static_cast<double>(media_client.stats().wire_bytes) * 8.0 / window / 1000.0;
  result.media_fairness_index = result.media_share_kbps / result.fair_share_kbps;
  const auto sent = rig.server(0).stats().packets_sent;
  result.media_loss =
      sent == 0 ? 0.0
                : 1.0 - static_cast<double>(std::min<std::uint64_t>(
                            media_client.stats().packets_received, sent)) /
                            static_cast<double>(sent);

  // TCP bytes delivered inside [t0, t1], from the per-second snapshots.
  const auto bytes_at = [&](SimTime t) -> double {
    std::uint64_t best = 0;
    for (const auto& [when, bytes] : tcp_progress) {
      if (when <= t) best = bytes;
    }
    return static_cast<double>(best);
  };
  result.tcp_share_kbps = (bytes_at(t1) - bytes_at(t0)) * 8.0 / window / 1000.0;
  result.tcp_retransmissions = tcp_sender.stats().retransmissions;
  return result;
}

}  // namespace streamlab
