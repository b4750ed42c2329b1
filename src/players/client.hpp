// Streaming client models: the player engines MediaTracker and RealTracker
// wrap. The client requests a clip, receives the datagram stream, tracks
// media byte coverage, runs the playout engine (preroll, per-frame decode
// deadlines) and — for the MediaPlayer model — batches application-layer
// packet delivery (the interleaving of Figure 12).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "media/encoder.hpp"
#include "players/behavior.hpp"
#include "players/multipath.hpp"
#include "players/protocol.hpp"
#include "players/repair.hpp"
#include "players/scaling.hpp"
#include "sim/audit.hpp"
#include "sim/host.hpp"
#include "util/interval_set.hpp"

namespace streamlab {

/// One received data packet, with both timestamp layers the paper compares
/// in Figure 12: when the OS delivered it and when the application saw it.
struct PacketEvent {
  SimTime network_time;      ///< UDP delivery to the player engine
  SimTime app_time;          ///< release to the application layer
  std::uint32_t seq = 0;
  std::uint64_t media_offset = 0;
  std::size_t media_len = 0;
  std::uint8_t flags = 0;
};

/// A frame playout decision made by the decode loop.
struct FrameEvent {
  SimTime time;
  std::uint32_t frame_index = 0;
  bool rendered = false;  ///< false = data missed its decode deadline
};

/// Session-establishment and liveness policy: how the client survives a
/// lossy control handshake and detects a dead stream instead of waiting
/// forever (the robustness the fault-injection layer exercises).
struct SessionRecoveryConfig {
  /// Retransmit the PLAY request until answered (PLAY-OK or data).
  bool play_retry = true;
  /// Timeout before the first retransmission; doubles via `backoff` each
  /// further attempt (exponential backoff).
  Duration play_timeout = Duration::millis(500);
  double backoff = 2.0;
  /// Total PLAY transmissions before the session is abandoned.
  int max_play_attempts = 5;
  /// Data-inactivity watchdog, armed at session establishment (PLAY-OK or
  /// first data): after this much silence (no data, no end-of-stream) the
  /// stream is declared dead. zero() disables the watchdog (the default,
  /// preserving the unguarded baseline behaviour).
  Duration inactivity_timeout = Duration::zero();
};

/// Mirror failover policy: when the active server's path fails — the
/// inactivity watchdog trips, PLAY retries exhaust, or routers on the path
/// report Destination Unreachable — the session fails over to the next
/// mirror, resuming at the current contiguous media position instead of
/// dying. Empty mirrors (the default) keeps the single-server behaviour.
struct FailoverConfig {
  /// Mirror servers tried in order; each failover advances to the next.
  std::vector<Endpoint> mirrors;
  /// Consecutive Destination Unreachable packets about the active server
  /// (with no data in between) that trigger a failover — the fast-fail
  /// signal, ahead of the inactivity watchdog. <= 0 disables the ICMP
  /// trigger (the watchdog/PLAY-retry triggers remain).
  int icmp_unreachable_threshold = 3;
};

class StreamClient {
 public:
  struct Config {
    PlayerKind kind = PlayerKind::kMediaPlayer;
    WmBehavior wm;
    RmBehavior rm;
    std::uint16_t local_port = 0;  ///< 0 = player default port
    /// When enabled, the client sends periodic receiver reports (loss
    /// feedback) so a scaling-enabled server can adapt (Section VI).
    MediaScalingPolicy scaling;
    /// Playout policy for late data. false (the study's analysis model):
    /// a frame that misses its deadline is dropped and playout continues.
    /// true (the products' actual behaviour): playout stalls until the
    /// frame's data arrives, shifting all later deadlines — the rebuffering
    /// the delay buffer exists to avoid (Section 3.F).
    bool rebuffering = false;
    /// Longest single stall before the frame is abandoned as dropped.
    Duration max_stall = Duration::seconds(10);
    /// Handshake retry / liveness policy.
    SessionRecoveryConfig recovery;
    /// Mirror-server failover policy (empty = no failover).
    FailoverConfig failover;
    /// Loss repair policy (FEC decode + NACK retransmission requests). Must
    /// match the server's enable_repair configuration; the default leaves
    /// repair off and the client byte-identical to the unrepaired baseline.
    RepairLayerConfig repair;
    /// Multipath striping policy; must match the server's enable_multipath
    /// configuration (alias addresses included). Disabled by default.
    MultipathConfig multipath;
  };

  /// The session's application-layer statistics: the one set MediaTracker
  /// and RealTracker poll from the player engine. The repair fields stay
  /// zero while Config::repair is off, the multipath ones while
  /// Config::multipath is.
  struct Stats {
    // Session outcome.
    bool established = false;  ///< the server answered (PLAY-OK or data)
    bool abandoned = false;    ///< PLAY retries exhausted without an answer
    bool stream_dead = false;  ///< the inactivity watchdog fired mid-stream
    bool completed = false;    ///< playback ran to the final frame
    std::uint32_t play_attempts = 0;  ///< PLAYs sent (1 = the first succeeded)
    /// Inactivity-watchdog expiries: each one failed over or killed the stream.
    std::uint32_t watchdog_fired = 0;

    // Playout. Rebuffering stays zero when Config::rebuffering is off.
    std::uint32_t frames_rendered = 0;
    std::uint32_t frames_dropped = 0;
    std::uint32_t rebuffer_events = 0;
    Duration stall_time;

    // Datagrams.
    std::uint64_t packets_received = 0;  ///< released to the application
    /// Sequence numbers never received in any copy, over every failover
    /// epoch: duplicates and reordering neither inflate nor deflate it.
    std::uint64_t packets_lost = 0;
    std::uint64_t duplicate_packets = 0;  ///< carried a sequence already seen
    std::uint64_t wire_bytes = 0;  ///< data payload bytes, stream headers included

    // Mirror failover.
    std::uint32_t failovers = 0;          ///< 0 = the original server carried it all
    std::uint64_t icmp_unreachables = 0;  ///< about the active server
    std::uint64_t resume_offset = 0;      ///< media position of the last failover PLAY

    // Loss repair. A recovery is a packet the network lost that the repair
    // layer delivered: an FEC reconstruction or a retransmission that
    // filled a gap.
    std::uint64_t recovered_by_fec = 0;
    std::uint64_t recovered_by_retx = 0;
    std::uint64_t retx_packets = 0;  ///< retransmissions received
    std::uint64_t retx_bytes = 0;
    std::uint64_t parity_packets = 0;
    std::uint64_t parity_bytes = 0;
    std::uint64_t nacks_sent = 0;       ///< each names up to 17 sequences
    std::uint64_t nack_suppressed = 0;  ///< deferred by the reorder tolerance
    double repair_latency_mean_ms = 0.0;  ///< gap notice -> repair delivery
    double repair_latency_p95_ms = 0.0;

    // Multipath striping: subflow 0 is the primary path, 1 the detour.
    struct Subflow {
      std::uint64_t packets = 0;      ///< distinct datagrams delivered
      std::uint64_t lost = 0;         ///< holes in the subflow's own sequence
      std::uint64_t media_bytes = 0;  ///< media payload delivered
      std::uint32_t stalls = 0;       ///< stalls begun while it was the stalest
      /// holes / (holes + delivered).
      double loss_ratio() const {
        const std::uint64_t denom = lost + packets;
        return denom == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(denom);
      }
      bool operator==(const Subflow&) const = default;
    };
    Subflow subflow[2];
    std::uint32_t reorder_depth_p95 = 0;  ///< join-buffer occupancy
    std::uint64_t join_duplicates = 0;    ///< cross-subflow duplicates dropped
    std::uint64_t join_forced = 0;        ///< join-buffer hold-expiry releases
    std::uint64_t path_reports_sent = 0;  ///< per-subflow path reports

    std::uint64_t packets_recovered() const { return recovered_by_fec + recovered_by_retx; }
    std::uint64_t repair_wire_bytes() const { return parity_bytes + retx_bytes; }
    std::uint64_t total_wire_bytes() const { return wire_bytes + parity_bytes; }
    bool operator==(const Stats&) const = default;
  };

  /// The client needs the clip's frame table (in the real products this
  /// metadata arrives in the stream header exchange).
  StreamClient(Host& host, const EncodedClip& clip, Endpoint server, Config config);
  ~StreamClient();
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  /// Sends the PLAY request now (and arms the retry timer when enabled).
  void start();
  /// The local UDP port: Config::local_port, or the player's default.
  std::uint16_t port() const { return port_; }

  /// The counters so far; final once the event loop has drained.
  Stats stats() const;
  /// Gap-to-repair delay of each recovered packet, in recovery order; empty
  /// while Config::repair is off.
  std::span<const Duration> repair_latencies() const;
  /// "player.<real|media>": this client's trace track, and the prefix of its
  /// metrics in a run's registry.
  std::string obs_name() const;

  // --- Results (valid once the event loop has drained) ---
  const std::vector<PacketEvent>& packets() const { return packets_; }
  /// Moves packets() out, for a caller done with this client: the counters
  /// that stats() derives from them read zero afterwards.
  std::vector<PacketEvent> take_packets() { return std::move(packets_); }
  const std::vector<FrameEvent>& frame_events() const { return frame_events_; }
  std::uint64_t media_bytes_received() const { return coverage_.total_covered(); }

  bool play_ok_received() const { return play_ok_received_; }
  bool end_of_stream() const { return eos_received_; }
  bool playback_started() const { return playout_start_.has_value(); }

  /// When the session ended abnormally (abandoned or declared dead).
  std::optional<SimTime> session_failure_time() const { return failure_time_; }
  /// When the server first answered.
  std::optional<SimTime> session_established_time() const { return established_time_; }

  /// Lifecycle phase as reported to the invariant auditor (kIdle ->
  /// kConnecting -> {kEstablished, kAbandoned}; kEstablished ->
  /// {kCompleted, kDead, kConnecting} — the last is mirror failover).
  audit::SessionPhase session_phase() const { return phase_; }

  /// The server the session is currently (or was last) bound to.
  Endpoint active_server() const { return server_; }
  /// Closed [start, end) rebuffering stall intervals, in playout order —
  /// what lets a campaign attribute stall time to fault episodes that
  /// overlap them.
  const std::vector<std::pair<SimTime, SimTime>>& stall_intervals() const {
    return stalls_;
  }

  std::optional<SimTime> first_data_time() const { return first_data_; }
  std::optional<SimTime> last_data_time() const { return last_data_; }
  std::optional<SimTime> playout_start_time() const { return playout_start_; }
  std::optional<SimTime> playback_end_time() const { return playback_end_; }

  const EncodedClip& clip() const { return clip_; }
  PlayerKind kind() const { return config_.kind; }
  Host& host() const { return host_; }

  /// Average received data rate over the reception interval — the
  /// "Average Playback Data Rate" of Figure 3.
  BitRate average_playback_rate() const;

 private:
  /// Session-timeline trace instrumentation, allocated only when the run
  /// has an observability context attached (see obs/obs.hpp).
  struct ObsState {
    obs::Obs* obs = nullptr;
    std::uint16_t track = 0;  ///< "player.<real|media>" trace lane
    std::uint16_t retry_name = 0;
    std::uint16_t established_name = 0;
    std::uint16_t dead_name = 0;
    std::uint16_t abandoned_name = 0;
    std::uint16_t rebuffer_name = 0;
    std::uint16_t goodput_name = 0;
    std::uint16_t failover_name = 0;
    std::uint16_t unreachable_name = 0;
    std::uint16_t recovered_name = 0;
    std::uint64_t rebuffer_span = 0;  ///< open stall span, 0 when none
    SimTime goodput_window_start;
    std::uint64_t goodput_window_bytes = 0;
  };

  void enter_phase(audit::SessionPhase to);
  void handle_datagram(std::span<const std::uint8_t> payload, Endpoint from, SimTime now);
  void on_data(const DataHeader& header, std::size_t media_len, SimTime now);
  void on_parity(const ParityHeader& header, std::size_t wire_len, SimTime now);
  /// Registers the sequences a forward jump skipped as repair candidates.
  void register_gaps(std::uint64_t from_seq, std::uint64_t to_seq, SimTime now);
  /// Delivers an FEC-reconstructed packet through the normal reception path.
  void accept_recovered(const RecoveredPacket& packet, SimTime now);
  void record_repair_latency(std::uint32_t seq, SimTime now);
  void schedule_nack_timer();
  void on_nack_timer();
  void obs_instant(std::uint16_t name, SimTime now, double value = 0.0);
  void obs_end_rebuffer(SimTime now);
  void obs_goodput(std::size_t bytes, SimTime now);
  void send_play();
  void on_play_timeout();
  void on_session_established(SimTime now);
  void arm_watchdog(Duration delay);
  void on_watchdog();
  void on_icmp(const IcmpHeader& icmp, std::span<const std::uint8_t> payload, SimTime now);
  /// True when another mirror remains to fail over to.
  bool mirror_available() const {
    return next_mirror_ < config_.failover.mirrors.size();
  }
  void failover(SimTime now);
  /// Sequences missing from the current failover epoch.
  std::uint64_t epoch_packets_lost() const;
  void close_stall_interval(SimTime now);
  void abandon_remaining_frames(std::size_t from_index);
  void send_receiver_report();
  void release_app_batch();
  void begin_playout(SimTime when);
  void decode_frame(std::size_t index);
  void schedule_frame(std::size_t index);
  void decode_frame_rebuffering(std::size_t index);

  Host& host_;
  const EncodedClip& clip_;
  Endpoint server_;
  Config config_;
  std::uint16_t port_;

  std::vector<PacketEvent> packets_;
  std::deque<PacketEvent> pending_app_;  ///< awaiting batched release (WM)
  bool batch_timer_armed_ = false;

  IntervalSet coverage_;      ///< network-layer byte coverage
  IntervalSet app_coverage_;  ///< application-layer coverage (after release)

  std::optional<SimTime> first_data_;
  std::optional<SimTime> last_data_;
  std::optional<SimTime> playout_start_;
  std::optional<SimTime> playback_end_;
  bool play_ok_received_ = false;
  bool eos_received_ = false;

  /// The counters stats() reports, updated in place; the fields stats()
  /// derives when read stay zero here.
  Stats stats_;

  std::vector<FrameEvent> frame_events_;
  Duration playout_shift_;          ///< accumulated rebuffering stalls
  Duration current_stall_;          ///< stall time of the frame being waited on

  std::uint64_t max_seq_seen_ = 0;
  bool any_seq_seen_ = false;
  IntervalSet seq_seen_;                  ///< distinct sequence numbers received

  // Session recovery state.
  audit::SessionPhase phase_ = audit::SessionPhase::kIdle;
  Duration next_play_timeout_;
  EventHandle play_timer_;
  EventHandle watchdog_timer_;
  std::optional<SimTime> failure_time_;
  std::optional<SimTime> established_time_;

  // Failover state. Each failover starts a fresh *epoch* against the next
  // mirror: PLAY attempts, backoff, the answered flag and the sequence space
  // all reset (the mirror numbers from 0), while cumulative results
  // (coverage, packets, losses of finished epochs) carry over.
  std::size_t next_mirror_ = 0;
  int unreachable_streak_ = 0;
  bool current_server_answered_ = false;
  std::uint32_t play_attempts_current_ = 0;  ///< PLAYs sent to the active server
  std::uint64_t lost_prior_epochs_ = 0;
  SimTime liveness_anchor_;  ///< (re)establishment time, watchdog baseline
  bool icmp_handler_installed_ = false;

  // Rebuffering stall intervals (closed at stall end / session death).
  std::optional<SimTime> stall_start_;
  std::vector<std::pair<SimTime, SimTime>> stalls_;

  /// Loss-repair state, allocated only when Config::repair enables a
  /// mechanism (the baseline pays nothing, not even the branch targets).
  struct RepairState {
    explicit RepairState(const RepairLayerConfig& config) : nack(config) {
      if (config.fec_enabled())
        decoder = std::make_unique<FecDecoder>(config.effective_k(),
                                               config.effective_stride());
    }
    std::unique_ptr<FecDecoder> decoder;  ///< null when FEC is off
    NackTracker nack;
    /// Gap-notice time per missing sequence, for repair-latency accounting.
    std::map<std::uint32_t, SimTime> missing_since;
    EventHandle nack_timer;
    SimTime play_sent_at;
    bool rtt_known = false;
    /// Gap-to-repair delay of each recovered packet, in recovery order.
    std::vector<Duration> latencies;
  };
  std::unique_ptr<RepairState> repair_;

  /// Per-subflow reception state (multipath-framed packets only); the
  /// counters live in stats_.subflow.
  struct SubflowRx {
    std::uint32_t max_subflow_seq = 0;
    bool any = false;
    SimTime last_arrival;
  };

  /// Multipath reception state, allocated only when Config::multipath is
  /// enabled (single-path sessions pay nothing).
  struct MultipathState {
    explicit MultipathState(const MultipathConfig& c)
        : join(c.join_buffer_packets, c.join_hold) {}
    ReorderJoinBuffer join;
    SubflowRx rx[2];
    EventHandle report_timer;
    bool report_timer_armed = false;
    bool stopped = false;  ///< failover: the mirror epoch is single-path
  };
  std::unique_ptr<MultipathState> multipath_;

  /// Hands one packet to the application layer (batched on MediaPlayer,
  /// immediate on RealPlayer) — the tail every reception path shares.
  void deliver_app(PacketEvent ev, SimTime now);
  /// Routes a packet toward the application: straight through single-path,
  /// via the reordering join buffer under multipath.
  void route_to_app(const PacketEvent& ev, SimTime now);
  void send_path_reports();
  void note_subflow_arrival(const DataHeader& header, std::size_t media_len, SimTime now);
  /// Charges the stall beginning at `now` to the stalest subflow.
  void attribute_stall();

  std::unique_ptr<ObsState> obs_;

  // Receiver-report window state (media scaling feedback).
  bool report_timer_armed_ = false;
  std::uint64_t report_window_max_seq_ = 0;
  std::uint64_t report_window_received_ = 0;
  std::uint64_t reports_sent_ = 0;

 public:
  std::uint64_t receiver_reports_sent() const { return reports_sent_; }
};

}  // namespace streamlab
