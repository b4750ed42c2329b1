// Shared fixtures for player tests: a short custom clip and a small network
// so individual tests run in milliseconds while exercising the full stack.
#pragma once

#include <vector>

#include "core/rig.hpp"
#include "media/encoder.hpp"
#include "players/client.hpp"
#include "players/server.hpp"

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

/// One complete single-clip session on a fresh rig, its client configured
/// by `player`, its server's sends recorded in `send_log`.
struct Session {
  SessionRig rig;
  Network& net;
  StreamServer* server;
  StreamClient* client;
  const EncodedClip& encoded;
  std::vector<StreamServer::SendEvent> send_log;

  explicit Session(const ClipInfo& clip, PathConfig path = fast_path(),
                   std::uint64_t seed = 7, const StreamClient::Config& player = {})
      : rig(config(clip, path, seed, player)),
        net(rig.network()),
        server(&rig.server(0)),
        client(&rig.client(0)),
        encoded(server->clip()) {
    record_sends(*server, send_log);
  }

  static SessionRig::Config config(const ClipInfo& clip, const PathConfig& path,
                                   std::uint64_t seed, const StreamClient::Config& player) {
    SessionRig::Config rc;
    rc.path = path;
    rc.seed = seed;
    rc.sessions.push_back({clip, "srv", seed});
    rc.player = player;
    return rc;
  }

  /// Starts and runs to quiescence (clip length + slack).
  void run(Duration slack = Duration::seconds(30)) {
    rig.start();
    net.loop().run_until(net.loop().now() + encoded.info().length + slack);
  }
};

}  // namespace streamlab::testutil
