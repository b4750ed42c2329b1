// Streaming server models.
//
// WmServer reproduces the wire behaviour the paper attributes to Windows
// Media servers: one large application frame per fixed interval, paced at
// exactly the encoding rate from the first packet to the last (buffering at
// playout rate, Section 3.F), with datagrams at high rates exceeding the
// MTU so the host IP layer fragments them (Sections 3.C-3.D).
//
// RmServer reproduces RealServer behaviour: sub-MTU packets of varied size,
// varied interarrival, and a startup burst at buffering_ratio x the playout
// rate for burst_duration seconds (Sections 3.D-3.F).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "media/encoder.hpp"
#include "players/behavior.hpp"
#include "players/multipath.hpp"
#include "players/protocol.hpp"
#include "players/repair.hpp"
#include "players/scaling.hpp"
#include "sim/host.hpp"
#include "util/rng.hpp"

namespace streamlab {

class StreamServer {
 public:
  struct SendEvent {
    SimTime time;
    std::uint32_t seq = 0;
    std::uint64_t media_offset = 0;
    std::size_t media_len = 0;
    bool buffering_phase = false;
  };

  /// Session counters; the repair fields stay zero while repair is off.
  struct Stats {
    /// Data packets sent (seq-numbered; parity and retransmissions are
    /// counted below), and when the first and last of them left — zero
    /// while none has.
    std::uint64_t packets_sent = 0;
    SimTime first_send;
    SimTime last_send;
    /// PLAY retransmissions re-acknowledged after the session started.
    std::uint64_t duplicate_play_requests = 0;
    std::uint64_t parity_packets = 0;
    std::uint64_t parity_bytes = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t retx_packets = 0;      ///< retransmissions answered
    std::uint64_t retx_bytes = 0;
    std::uint64_t retx_suppressed = 0;   ///< dropped: the pacer was out of tokens
    std::uint64_t retx_unavailable = 0;  ///< NACKed, already off the ring
  };

  /// Binds the control/data port on `host` and waits for a PLAY request.
  StreamServer(Host& host, EncodedClip clip, std::uint16_t port);
  virtual ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  const EncodedClip& clip() const { return clip_; }
  std::uint16_t port() const { return port_; }
  /// Where clients address this server: {host address, port}.
  Endpoint endpoint() const { return Endpoint{host_.address(), port_}; }
  bool started() const { return started_; }
  bool finished() const { return finished_; }
  /// Lifecycle phase as reported to the invariant auditor
  /// (kIdle -> kStreaming -> kFinished).
  audit::SessionPhase session_phase() const { return audit_phase_; }
  const Stats& stats() const { return stats_; }
  /// "server.<rm|wm|port>": this server's trace track, and the prefix of its
  /// metrics in a run's registry (a mirror on the same port shares it).
  std::string obs_name() const;
  /// Wall-clock streaming duration (first send to last send).
  Duration streaming_duration() const;
  /// Called with every data packet as it is sent; none by default. The
  /// server keeps no per-packet log itself, so tests that inspect each send
  /// record them through this.
  void on_send(std::function<void(const SendEvent&)> hook) { on_send_ = std::move(hook); }

  /// Enables media scaling (Section VI): the server thins frames when the
  /// client's receiver reports show loss. Call before the PLAY arrives.
  void enable_scaling(MediaScalingPolicy policy);
  bool scaling_enabled() const { return scaling_ != nullptr; }
  /// Current keep fraction (1.0 when scaling is off or at full quality).
  double scaling_keep_fraction() const;
  std::size_t scaling_level_changes() const;
  std::uint32_t frames_thinned() const;

  /// Enables the loss repair layer (FEC parity emission and/or NACK
  /// retransmission service). Call before the PLAY arrives.
  void enable_repair(RepairLayerConfig config);
  bool repair_enabled() const { return repair_ != nullptr; }

  /// Enables multipath striping: data packets are dispatched across the
  /// primary path (subflow 0) and the detour subflow (subflow 1, server
  /// alias -> client alias) by the health-driven weighted scheduler. Call
  /// before the PLAY arrives; `config` must carry the alias addresses from
  /// Network::enable_multipath(). Parity and retransmissions stay on the
  /// primary path in canonical (non-multipath) form, so the repair layer's
  /// sequence spaces are untouched by striping.
  void enable_multipath(MultipathConfig config);
  bool multipath_enabled() const { return multipath_ != nullptr; }

  // --- Multipath statistics (zero when multipath is off) ---
  /// Healthy<->draining transitions across all subflows.
  std::uint64_t path_switches() const {
    return multipath_ ? multipath_->scheduler.path_switches() : 0;
  }
  /// True while every subflow is draining (degraded to primary-only).
  bool multipath_degraded() const {
    return multipath_ != nullptr && multipath_->scheduler.all_draining();
  }
  const SubflowScheduler* multipath_scheduler() const {
    return multipath_ ? &multipath_->scheduler : nullptr;
  }

 protected:
  /// Invoked when a PLAY request arrives; implementations start their send
  /// schedule here.
  virtual void on_play() = 0;

  /// Sends the next `media_len` bytes of the clip (clamped to what remains),
  /// tagging the packet with seq/offset/flags. Returns the bytes actually
  /// sent; 0 means the clip is exhausted (and marks the stream finished).
  /// When scaling is enabled, bytes come from the thinned-frame cursor and
  /// datagrams never span a thinning gap.
  std::size_t send_media(std::size_t media_len, bool buffering_phase);

  std::uint64_t remaining_bytes() const {
    return clip_.total_bytes() - next_offset_;
  }

  Host& host_;
  EncodedClip clip_;
  std::uint16_t port_;
  Endpoint client_;
  bool started_ = false;
  bool finished_ = false;

 private:
  void handle_control(std::span<const std::uint8_t> payload, Endpoint from);

  void audit_transition(audit::SessionPhase to);
  /// Marks the stream finished exactly once, reporting the state transition
  /// to an attached auditor.
  void finish_stream();

  /// Honors a PLAY request's resume offset: streaming starts (and seq
  /// numbering continues from 0) at this media byte instead of the top —
  /// how a mirror continues a failed-over session.
  void resume_from(std::uint64_t offset);

  std::size_t send_plain(std::size_t media_len, bool buffering_phase);
  std::size_t send_thinned(std::size_t media_len, bool buffering_phase);
  void emit(std::uint64_t offset, std::size_t media_len, std::uint8_t flags,
            bool buffering_phase);

  void on_scaling_switch();

  audit::SessionPhase audit_phase_ = audit::SessionPhase::kIdle;
  std::uint32_t next_seq_ = 0;
  std::uint64_t next_offset_ = 0;
  Stats stats_;
  std::function<void(const SendEvent&)> on_send_;

  struct ScalingState {
    ScalingController controller;
    ThinnedMediaCursor cursor;
  };
  std::unique_ptr<ScalingState> scaling_;

  /// Loss-repair state, allocated by enable_repair.
  struct RepairState {
    RepairLayerConfig config;
    FecBlockEncoder encoder;
    RetransmitBuffer buffer;
    TokenBucketPacer pacer;
  };
  std::unique_ptr<RepairState> repair_;

  /// Multipath dispatch state, allocated by enable_multipath.
  struct MultipathState {
    explicit MultipathState(const MultipathConfig& c) : config(c), scheduler(c) {}
    MultipathConfig config;
    SubflowScheduler scheduler;
    EventHandle strike_timer;
  };
  std::unique_ptr<MultipathState> multipath_;
  bool multipath_icmp_installed_ = false;

  void send_parity(const ParityOut& parity);
  void handle_nack(const ControlMessage& msg);
  void handle_path_report(const ControlMessage& msg);
  void on_multipath_tick();
  /// Destination endpoint of the detour subflow (client alias, data port).
  Endpoint subflow1_destination() const {
    return Endpoint{multipath_->config.client_alias, client_.port};
  }

  /// Scaling-switch trace instrumentation, allocated only when an
  /// observability context is attached to the loop (see obs/obs.hpp).
  struct ObsState {
    obs::Obs* obs = nullptr;
    std::uint16_t track = 0;
    std::uint16_t switch_name = 0;
    std::uint16_t keep_name = 0;
  };
  std::unique_ptr<ObsState> obs_;
};

/// MediaPlayer server model (CBR, large frames, fragmentation at high rates).
class WmServer : public StreamServer {
 public:
  WmServer(Host& host, EncodedClip clip, WmBehavior behavior = {},
           std::uint16_t port = kMediaServerPort);

 protected:
  void on_play() override;

 private:
  void send_next();

  WmBehavior behavior_;
  std::size_t datagram_media_ = 0;
  Duration interval_;
};

/// RealPlayer server model (varied packets, startup burst, no fragmentation).
class RmServer : public StreamServer {
 public:
  RmServer(Host& host, EncodedClip clip, RmBehavior behavior = {},
           std::uint16_t port = kRealServerPort, std::uint64_t seed = 0x524D);

 protected:
  void on_play() override;

 private:
  void send_next();

  RmBehavior behavior_;
  Rng rng_;
  SimTime burst_end_;
  std::size_t mean_media_ = 0;
};

/// The server model for `encoded`'s player: a WmServer on kMediaServerPort
/// for MediaPlayer clips, an RmServer on kRealServerPort seeded with
/// `rm_seed` for RealPlayer clips.
std::unique_ptr<StreamServer> make_server(Host& host, const EncodedClip& encoded,
                                          const WmBehavior& wm, const RmBehavior& rm,
                                          std::uint64_t rm_seed);

}  // namespace streamlab
