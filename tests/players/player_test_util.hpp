// Shared fixtures for player tests: a short custom clip and a small network
// so individual tests run in milliseconds while exercising the full stack.
#pragma once

#include <vector>

#include "media/encoder.hpp"
#include "players/client.hpp"
#include "players/server.hpp"
#include "sim/network.hpp"

namespace streamlab::testutil {

/// A synthetic short clip (not from the catalog) for fast tests.
inline ClipInfo short_clip(PlayerKind player, double kbps, int seconds = 10) {
  ClipInfo c;
  c.data_set = 1;
  c.content = ContentClass::kNews;
  c.player = player;
  c.tier = kbps < 150 ? RateTier::kLow : RateTier::kHigh;
  c.encoded_rate = BitRate::kbps(kbps);
  c.advertised_rate = BitRate::kbps(kbps < 150 ? 56 : 300);
  c.length = Duration::seconds(seconds);
  return c;
}

inline PathConfig fast_path() {
  PathConfig cfg;
  cfg.hop_count = 4;
  cfg.one_way_propagation = Duration::millis(10);
  cfg.jitter_stddev = Duration::micros(100);
  cfg.loss_probability = 0.0;
  return cfg;
}

/// Records every data packet `server` sends into `log`: the per-packet log
/// the server itself does not keep.
inline void record_sends(StreamServer& server, std::vector<StreamServer::SendEvent>& log) {
  server.on_send([&log](const StreamServer::SendEvent& e) { log.push_back(e); });
}

/// One complete single-clip session over a fresh network, its server's
/// sends recorded in `send_log`.
struct Session {
  Network net;
  Host& server_host;
  EncodedClip encoded;
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<StreamClient> client;
  std::vector<StreamServer::SendEvent> send_log;

  explicit Session(const ClipInfo& clip, PathConfig path = fast_path(),
                   std::uint64_t seed = 7)
      : net(path), server_host(net.add_server("srv")), encoded(encode_clip(clip, seed)) {
    server = make_server(server_host, encoded, WmBehavior{}, RmBehavior{}, seed);
    record_sends(*server, send_log);
    StreamClient::Config cc;
    cc.kind = clip.player;
    client = std::make_unique<StreamClient>(net.client(), server->clip(),
                                            server->endpoint(), cc);
  }

  /// Starts and runs to quiescence (clip length + slack).
  void run(Duration slack = Duration::seconds(30)) {
    client->start();
    net.loop().run_until(net.loop().now() + encoded.info().length + slack);
  }
};

}  // namespace streamlab::testutil
