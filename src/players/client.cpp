#include "players/client.hpp"
#include <algorithm>

#include "net/headers.hpp"
#include "util/bytes.hpp"


namespace streamlab {

StreamClient::StreamClient(Host& host, const EncodedClip& clip, Endpoint server,
                           Config config)
    : host_(host), clip_(clip), server_(server), config_(config) {
  port_ = config_.local_port != 0 ? config_.local_port
          : config_.kind == PlayerKind::kRealPlayer ? kRealClientPort
                                                    : kMediaClientPort;
  host_.udp_bind(port_, [this](std::span<const std::uint8_t> payload, Endpoint from,
                               SimTime now) { handle_datagram(payload, from, now); });

  if (config_.repair.enabled()) repair_ = std::make_unique<RepairState>(config_.repair);
  if (config_.multipath.enabled)
    multipath_ = std::make_unique<MultipathState>(config_.multipath);

  // With mirrors configured, Destination Unreachable about the active server
  // is a fast-fail signal: listen for it ahead of the inactivity watchdog.
  if (!config_.failover.mirrors.empty() &&
      config_.failover.icmp_unreachable_threshold > 0) {
    icmp_handler_installed_ = true;
    host_.set_icmp_handler(
        [this](const IcmpHeader& icmp, const Ipv4Header&,
               std::span<const std::uint8_t> payload, SimTime now) {
          on_icmp(icmp, payload, now);
        });
  }

  if (obs::Obs* obs = host_.loop().observer(); obs != nullptr) {
    obs_ = std::make_unique<ObsState>();
    obs_->obs = obs;
    const std::string tag =
        config_.kind == PlayerKind::kRealPlayer ? "real" : "media";
    const std::string prefix = "player." + tag + ".";
    obs_->play_attempts = obs->registry().counter(prefix + "play_attempts");
    obs_->play_retries = obs->registry().counter(prefix + "play_retries");
    obs_->watchdog_fired = obs->registry().counter(prefix + "watchdog_fired");
    obs_->rebuffers = obs->registry().counter(prefix + "rebuffer_events");
    obs_->failovers = obs->registry().counter(prefix + "failovers");
    obs_->unreachables = obs->registry().counter(prefix + "icmp_unreachables");
    obs_->recovered = obs->registry().counter(prefix + "packets_recovered");
    obs_->nacks = obs->registry().counter(prefix + "nacks_sent");
    obs_->nack_suppressed = obs->registry().counter(prefix + "nacks_suppressed");
    obs_->path_reports = obs->registry().counter(prefix + "path_reports_sent");
    obs_->repair_latency =
        obs->registry().histogram(prefix + "repair_latency_ms", 5.0, 100);
    obs::Tracer& tracer = obs->tracer();
    obs_->track = tracer.intern("player." + tag);
    obs_->retry_name = tracer.intern("play-retry");
    obs_->established_name = tracer.intern("session-established");
    obs_->dead_name = tracer.intern("stream-dead");
    obs_->abandoned_name = tracer.intern("session-abandoned");
    obs_->rebuffer_name = tracer.intern("rebuffer");
    obs_->goodput_name = tracer.intern(prefix + "goodput_kbps");
    obs_->failover_name = tracer.intern("failover");
    obs_->unreachable_name = tracer.intern("icmp-unreachable");
    obs_->recovered_name = tracer.intern("packet-recovered");
  }
}

StreamClient::~StreamClient() {
  play_timer_.cancel();
  watchdog_timer_.cancel();
  if (repair_) repair_->nack_timer.cancel();
  if (multipath_) multipath_->report_timer.cancel();
  if (icmp_handler_installed_) host_.set_icmp_handler({});
  host_.udp_unbind(port_);
}

void StreamClient::start() {
  enter_phase(audit::SessionPhase::kConnecting);
  next_play_timeout_ = config_.recovery.play_timeout;
  send_play();
}

void StreamClient::enter_phase(audit::SessionPhase to) {
  // Every real lifecycle transition flows through here so an attached
  // auditor can validate the session state machine as it happens.
  if (audit::Auditor* a = host_.loop().auditor())
    a->on_session_transition(
        config_.kind == PlayerKind::kRealPlayer ? "client.real" : "client.media",
        phase_, to, host_.loop().now());
  phase_ = to;
}

void StreamClient::obs_instant(std::uint16_t name, SimTime now, double value) {
  if (obs_ && obs_->obs->tracing())
    obs_->obs->tracer().instant(name, obs_->track, now, value);
}

void StreamClient::obs_end_rebuffer(SimTime now) {
  if (obs_ && obs_->rebuffer_span != 0) {
    obs_->obs->tracer().end_span(obs_->rebuffer_span, now);
    obs_->rebuffer_span = 0;
  }
}

void StreamClient::obs_goodput(std::size_t bytes, SimTime now) {
  // Per-second goodput series: close the window once >= 1 s of sim time has
  // elapsed, then start the next one with the packet that closed it.
  if (obs_->goodput_window_bytes == 0 && obs_->goodput_window_start == SimTime()) {
    obs_->goodput_window_start = now;
  }
  const Duration elapsed = now - obs_->goodput_window_start;
  if (elapsed >= Duration::seconds(1)) {
    const double kbps = static_cast<double>(obs_->goodput_window_bytes) * 8.0 /
                        elapsed.to_seconds() / 1000.0;
    if (obs_->obs->tracing())
      obs_->obs->tracer().sample_always(obs_->goodput_name, now, kbps);
    obs_->goodput_window_start = now;
    obs_->goodput_window_bytes = 0;
  }
  obs_->goodput_window_bytes += bytes;
}

void StreamClient::send_play() {
  ++play_attempts_;
  ++play_attempts_current_;
  if (obs_) {
    obs_->play_attempts.add();
    if (play_attempts_ > 1) {
      obs_->play_retries.add();
      obs_instant(obs_->retry_name, host_.loop().now(),
                  static_cast<double>(play_attempts_));
    }
  }
  ControlMessage play{ControlType::kPlayRequest, clip_.info().id()};
  play.offset = resume_offset_;  // nonzero only after a failover
  const auto bytes = play.encode();
  if (repair_) repair_->play_sent_at = host_.loop().now();
  host_.udp_send(port_, server_, bytes);
  if (config_.recovery.play_retry) {
    play_timer_ = host_.loop().schedule_in(next_play_timeout_,
                                           [this] { on_play_timeout(); },
                                           obs::EventCategory::kControl);
    next_play_timeout_ = next_play_timeout_.scaled(config_.recovery.backoff);
  }
}

void StreamClient::on_play_timeout() {
  // `current_server_answered_` (not the sticky session_established()) gates
  // the retry loop so a post-failover PLAY keeps retrying against the mirror
  // even though the original server once answered.
  if (current_server_answered_ || session_abandoned_ || stream_dead_) return;
  if (play_attempts_current_ >= static_cast<std::uint32_t>(
                                    std::max(1, config_.recovery.max_play_attempts))) {
    // This server never answered: move to the next mirror if one remains,
    // otherwise give the session up.
    if (mirror_available()) {
      failover(host_.loop().now());
      return;
    }
    session_abandoned_ = true;
    failure_time_ = host_.loop().now();
    enter_phase(audit::SessionPhase::kAbandoned);
    if (repair_) repair_->nack_timer.cancel();
    if (obs_) obs_instant(obs_->abandoned_name, host_.loop().now());
    return;
  }
  send_play();
}

void StreamClient::on_session_established(SimTime now) {
  play_timer_.cancel();
  current_server_answered_ = true;
  liveness_anchor_ = now;
  if (repair_ && !repair_->rtt_known) {
    // The PLAY -> first-response round trip seeds the NACK retry delay. A
    // retried handshake overestimates the RTT, which only makes the retry
    // schedule more conservative.
    repair_->rtt_known = true;
    repair_->nack.set_rtt(now - repair_->play_sent_at);
  }
  if (established_time_) {
    // A mirror answered after a failover: re-enter kEstablished and re-arm
    // the watchdog against the new server's stream (it was disarmed while
    // the failover PLAY was in flight).
    if (phase_ == audit::SessionPhase::kConnecting) {
      enter_phase(audit::SessionPhase::kEstablished);
      if (obs_) obs_instant(obs_->established_name, now);
      if (config_.recovery.inactivity_timeout > Duration::zero())
        arm_watchdog(config_.recovery.inactivity_timeout);
    }
    return;
  }
  established_time_ = now;
  enter_phase(audit::SessionPhase::kEstablished);
  if (obs_) obs_instant(obs_->established_name, now);
  // Arm the inactivity watchdog at establishment, not at first data: a
  // PLAY-OK followed by a permanent outage must still be detected as a
  // dead session rather than waiting forever for data that never comes.
  if (config_.recovery.inactivity_timeout > Duration::zero()) {
    arm_watchdog(config_.recovery.inactivity_timeout);
  }
}

void StreamClient::arm_watchdog(Duration delay) {
  watchdog_timer_ = host_.loop().schedule_in(delay, [this] { on_watchdog(); },
                                             obs::EventCategory::kControl);
}

void StreamClient::on_watchdog() {
  // playback_finished_ covers sessions whose end-of-stream marker was lost:
  // the drop-late timeline still completes them, and a completed session
  // must never be re-declared dead by a stale silence window.
  if (eos_received_ || stream_dead_ || session_abandoned_ || playback_finished_)
    return;
  const Duration window = config_.recovery.inactivity_timeout;
  const SimTime now = host_.loop().now();
  // Silence is measured from the last data packet, or — before any data
  // arrived — from session (re-)establishment, so the PLAY-OK→first-data
  // gap is covered too. The max() matters after a failover: last_data_ may
  // predate the mirror's establishment.
  const SimTime anchor = last_data_ ? std::max(*last_data_, liveness_anchor_)
                                    : liveness_anchor_;
  const SimTime deadline = anchor + window;
  if (now < deadline) {
    // Data arrived since the timer was armed; sleep until the silence
    // window measured from the latest packet would elapse.
    watchdog_timer_ = host_.loop().schedule_at(deadline, [this] { on_watchdog(); },
                                               obs::EventCategory::kControl);
    return;
  }
  if (mirror_available()) {
    // Silence exceeded the window but a mirror remains: fail the session
    // over instead of declaring it dead.
    if (obs_) obs_->watchdog_fired.add();
    failover(now);
    return;
  }
  // Silence exceeded the window with no end-of-stream: the session is dead.
  stream_dead_ = true;
  failure_time_ = now;
  enter_phase(audit::SessionPhase::kDead);
  play_timer_.cancel();
  if (repair_) repair_->nack_timer.cancel();
  if (obs_) {
    obs_->watchdog_fired.add();
    obs_instant(obs_->dead_name, now);
  }
}

void StreamClient::on_icmp(const IcmpHeader& icmp, std::span<const std::uint8_t> payload,
                           SimTime now) {
  if (icmp.type != IcmpType::kDestinationUnreachable) return;
  if (eos_received_ || stream_dead_ || session_abandoned_) return;
  // The error quotes the offending IP header; only errors about traffic we
  // sent toward the *active* server count (stale errors about an abandoned
  // server must not re-trigger a failover).
  ByteReader reader(payload);
  const auto quoted = Ipv4Header::decode(reader);
  if (!quoted || quoted->dst != server_.ip) return;
  ++icmp_unreachables_;
  ++unreachable_streak_;
  if (obs_) {
    obs_->unreachables.add();
    obs_instant(obs_->unreachable_name, now, static_cast<double>(unreachable_streak_));
  }
  if (unreachable_streak_ >= config_.failover.icmp_unreachable_threshold &&
      mirror_available()) {
    failover(now);
  }
}

void StreamClient::failover(SimTime now) {
  if (!mirror_available()) return;
  play_timer_.cancel();
  watchdog_timer_.cancel();
  ++failover_count_;
  server_ = config_.failover.mirrors[next_mirror_++];

  // The mirror is a fresh server whose sequence numbering restarts at 0:
  // fold the finished epoch's losses into the accumulator and track the new
  // epoch's sequence space from scratch. In-flight packets from the old
  // server are rejected by handle_datagram's source filter.
  if (any_seq_seen_) {
    const std::uint64_t expected = max_seq_seen_ + 1;
    const std::uint64_t unique = seq_seen_.total_covered();
    lost_prior_epochs_ += expected > unique ? expected - unique : 0;
  }
  seq_seen_ = IntervalSet();
  max_seq_seen_ = 0;
  any_seq_seen_ = false;
  report_window_max_seq_ = 0;
  report_window_received_ = packets_.size() + pending_app_.size();

  // Multipath striping ends with the original server: the held join-buffer
  // packets are delivered (their media bytes may lie below the resume
  // offset, so dropping them would leave app-coverage holes the mirror
  // never refills), then the buffer resets and the mirror epoch runs
  // single-path — mirrors do not stripe.
  if (multipath_) {
    for (const JoinPacket& held : multipath_->join.flush()) {
      PacketEvent ev;
      ev.network_time = held.arrival;
      ev.seq = held.seq;
      ev.media_offset = held.media_offset;
      ev.media_len = held.media_len;
      ev.flags = held.flags;
      deliver_app(ev, now);
    }
    multipath_->join.reset();
    multipath_->report_timer.cancel();
    multipath_->report_timer_armed = false;
    multipath_->stopped = true;
  }

  // The mirror's sequence space is fresh: row state, gap registry and
  // pending NACKs from the old epoch are meaningless against it.
  if (repair_) {
    if (repair_->decoder) repair_->decoder->reset();
    repair_->nack.reset();
    repair_->nack_timer.cancel();
    repair_->missing_since.clear();
  }

  unreachable_streak_ = 0;
  current_server_answered_ = false;
  play_attempts_current_ = 0;
  next_play_timeout_ = config_.recovery.play_timeout;
  // Ask the mirror to resume at the longest contiguous prefix already
  // received — everything past it may have holes and will be re-sent.
  resume_offset_ = coverage_.contiguous_prefix();

  if (phase_ == audit::SessionPhase::kEstablished)
    enter_phase(audit::SessionPhase::kConnecting);
  if (obs_) {
    obs_->failovers.add();
    obs_instant(obs_->failover_name, now, static_cast<double>(failover_count_));
  }
  send_play();
}

void StreamClient::handle_datagram(std::span<const std::uint8_t> payload, Endpoint from,
                                   SimTime now) {
  // Multipath subflow 1 arrives from the server's alias address; everything
  // else must come from the active server.
  const bool from_alias = multipath_ && !multipath_->stopped &&
                          from.ip == config_.multipath.server_alias &&
                          from.port == server_.port;
  if (from.ip != server_.ip && !from_alias) return;
  if (auto ctrl = ControlMessage::decode(payload)) {
    if (ctrl->type == ControlType::kPlayOk) {
      play_ok_received_ = true;
      on_session_established(now);
    }
    return;
  }
  if (repair_ && repair_->decoder) {
    if (auto parity = ParityHeader::decode(payload)) {
      on_parity(*parity, payload.size(), now);
      return;
    }
  }
  std::size_t media_len = 0;
  if (auto header = DataHeader::decode(payload, media_len)) {
    on_data(*header, media_len, now);
  }
}

void StreamClient::on_parity(const ParityHeader& header, std::size_t wire_len,
                             SimTime now) {
  if (stream_dead_) return;
  unreachable_streak_ = 0;  // parity is live traffic from the server too
  if (!current_server_answered_) on_session_established(now);
  last_data_ = now;
  ++repair_->parity_packets;
  repair_->parity_bytes += wire_len;
  if (auto recovered = repair_->decoder->on_parity(header))
    accept_recovered(*recovered, now);
}

void StreamClient::register_gaps(std::uint64_t from_seq, std::uint64_t to_seq,
                                 SimTime now) {
  // Bound the registry: a jump wider than the server's retransmission window
  // is unrepairable history (e.g. rejoining after a long outage).
  constexpr std::uint64_t kMaxTracked = 4096;
  for (std::uint64_t seq = from_seq; seq < to_seq; ++seq) {
    if (repair_->missing_since.size() >= kMaxTracked) break;
    const auto seq32 = static_cast<std::uint32_t>(seq);
    repair_->missing_since.emplace(seq32, now);
    if (config_.repair.nack) repair_->nack.note_missing(seq32, now);
  }
  if (config_.repair.nack) schedule_nack_timer();
}

void StreamClient::record_repair_latency(std::uint32_t seq, SimTime now) {
  Duration latency = Duration::zero();
  if (const auto it = repair_->missing_since.find(seq);
      it != repair_->missing_since.end()) {
    latency = now - it->second;
    repair_->missing_since.erase(it);
  }
  repair_->latencies.push_back(latency);
  if (obs_) {
    obs_->recovered.add();
    obs_->repair_latency.record(latency.to_millis());
    obs_instant(obs_->recovered_name, now, static_cast<double>(seq));
  }
}

void StreamClient::accept_recovered(const RecoveredPacket& packet, SimTime now) {
  if (stream_dead_) return;
  if (seq_seen_.covers(packet.seq, std::uint64_t{packet.seq} + 1)) return;
  seq_seen_.insert(packet.seq, std::uint64_t{packet.seq} + 1);
  if (!any_seq_seen_ || packet.seq > max_seq_seen_) {
    max_seq_seen_ = packet.seq;
    any_seq_seen_ = true;
  }
  if (packet.flags & kFlagEndOfStream) eos_received_ = true;
  coverage_.insert(packet.media_offset, packet.media_offset + packet.media_len);

  ++repair_->recovered_by_fec;
  record_repair_latency(packet.seq, now);
  if (config_.repair.nack) {
    repair_->nack.note_arrival(packet.seq);
    schedule_nack_timer();
  }

  // The reconstruction flows to the application exactly like a received
  // datagram (batched on MediaPlayer, immediate on RealPlayer) — recovered
  // packets are a subset of received packets, as the paper's trackers count
  // them. Wire-byte accounting is untouched: nothing arrived on the wire.
  PacketEvent ev;
  ev.network_time = now;
  ev.seq = packet.seq;
  ev.media_offset = packet.media_offset;
  ev.media_len = packet.media_len;
  ev.flags = packet.flags;
  route_to_app(ev, now);

  if (!playout_start_ && first_data_) {
    const Duration preroll = config_.kind == PlayerKind::kMediaPlayer
                                 ? config_.wm.preroll
                                 : config_.rm.preroll;
    begin_playout(*first_data_ + preroll);
  }
}

void StreamClient::schedule_nack_timer() {
  repair_->nack_timer.cancel();
  const auto next = repair_->nack.next_deadline();
  if (!next || stream_dead_ || session_abandoned_) return;
  repair_->nack_timer = host_.loop().schedule_at(*next, [this] { on_nack_timer(); },
                                                 obs::EventCategory::kControl);
}

void StreamClient::on_nack_timer() {
  if (stream_dead_ || session_abandoned_) return;
  const SimTime now = host_.loop().now();
  const auto due = repair_->nack.due(now);
  if (obs_) {
    const std::uint64_t suppressed = repair_->nack.suppressed();
    if (suppressed > obs_->nack_suppressed_synced) {
      obs_->nack_suppressed.add(suppressed - obs_->nack_suppressed_synced);
      obs_->nack_suppressed_synced = suppressed;
    }
  }
  if (!due.empty()) {
    for (const ControlMessage& msg : make_nack_messages(clip_.info().id(), due)) {
      const auto bytes = msg.encode();
      host_.udp_send(port_, server_, bytes);
      ++repair_->nacks_sent;
      if (obs_) obs_->nacks.add();
    }
  }
  schedule_nack_timer();
}

void StreamClient::on_data(const DataHeader& header, std::size_t media_len, SimTime now) {
  if (stream_dead_) return;  // the watchdog already tore the session down
  unreachable_streak_ = 0;   // data disproves an unreachable path
  if (!first_data_) {
    first_data_ = now;
    on_session_established(now);
    if (config_.scaling.enabled && !report_timer_armed_) {
      report_timer_armed_ = true;
      report_window_max_seq_ = header.seq;
      host_.loop().post_in(config_.scaling.report_interval,
                           [this] { send_receiver_report(); },
                               obs::EventCategory::kControl);
    }
  } else if (!current_server_answered_) {
    // First data from a mirror after a failover whose PLAY-OK was lost.
    on_session_established(now);
  }
  last_data_ = now;
  const std::size_t wire_len =
      kDataHeaderSize + media_len +
      ((header.flags & kFlagMultipath) != 0 ? kMultipathExtensionSize : 0);
  wire_media_bytes_ += wire_len;
  if (obs_) obs_goodput(wire_len, now);
  if (multipath_ && (header.flags & kFlagMultipath) != 0)
    note_subflow_arrival(header, media_len, now);

  const bool duplicate = seq_seen_.covers(header.seq, std::uint64_t{header.seq} + 1);
  if (duplicate) {
    // Late originals of already-repaired sequences land here, so a repair
    // never double-delivers media to the application.
    ++duplicate_packets_;
  } else {
    seq_seen_.insert(header.seq, std::uint64_t{header.seq} + 1);
  }

  if (repair_) {
    if (header.flags & kFlagRetransmit) {
      ++repair_->retx_packets;
      repair_->retx_bytes += kDataHeaderSize + media_len;
    }
    if (!duplicate) {
      // A forward jump over unseen sequence numbers is the gap detector:
      // everything skipped becomes a repair candidate (FEC latency anchor
      // and, when enabled, a pending NACK).
      if (any_seq_seen_ && header.seq > max_seq_seen_ + 1)
        register_gaps(max_seq_seen_ + 1, header.seq, now);
      else if (!any_seq_seen_ && header.seq > 0)
        register_gaps(0, header.seq, now);

      if (header.flags & kFlagRetransmit) {
        // A retransmission filling a gap is a repair; count it and its
        // gap-to-fill latency.
        ++repair_->recovered_by_retx;
        record_repair_latency(header.seq, now);
      } else {
        // A late natural arrival closes the gap without being a repair.
        repair_->missing_since.erase(header.seq);
      }
      if (config_.repair.nack) {
        repair_->nack.note_arrival(header.seq);
        schedule_nack_timer();
      }
      if (repair_->decoder) {
        // Strip the retransmit and multipath bits before the XOR: the
        // server's encoder was fed the canonical (pre-striping) flags.
        const auto fec_flags = static_cast<std::uint8_t>(
            header.flags & ~(kFlagRetransmit | kFlagMultipath));
        if (auto recovered = repair_->decoder->on_data(
                header.seq, header.media_offset,
                static_cast<std::uint32_t>(media_len), fec_flags))
          accept_recovered(*recovered, now);
      }
    }
    if (obs_) {
      const std::uint64_t suppressed = repair_->nack.suppressed();
      if (suppressed > obs_->nack_suppressed_synced) {
        obs_->nack_suppressed.add(suppressed - obs_->nack_suppressed_synced);
        obs_->nack_suppressed_synced = suppressed;
      }
    }
  }

  if (!any_seq_seen_ || header.seq > max_seq_seen_) {
    max_seq_seen_ = header.seq;
    any_seq_seen_ = true;
  }
  if (header.flags & kFlagEndOfStream) eos_received_ = true;

  coverage_.insert(header.media_offset, header.media_offset + media_len);

  PacketEvent ev;
  ev.network_time = now;
  ev.seq = header.seq;
  ev.media_offset = header.media_offset;
  ev.media_len = media_len;
  ev.flags = header.flags;
  // Duplicates flow to the application too, exactly as before multipath:
  // the app layer's coverage accounting is idempotent.
  route_to_app(ev, now);

  if (!playout_start_) {
    const Duration preroll = config_.kind == PlayerKind::kMediaPlayer
                                 ? config_.wm.preroll
                                 : config_.rm.preroll;
    begin_playout(*first_data_ + preroll);
  }
}

void StreamClient::send_receiver_report() {
  // Loss over the report window, from the sequence-number advance vs the
  // datagrams actually received.
  const std::uint64_t expected =
      max_seq_seen_ > report_window_max_seq_ ? max_seq_seen_ - report_window_max_seq_ : 0;
  const std::uint64_t received_total = packets_.size() + pending_app_.size();
  const std::uint64_t received_window =
      received_total > report_window_received_ ? received_total - report_window_received_
                                               : 0;
  double loss = 0.0;
  if (expected > 0 && received_window < expected)
    loss = 1.0 - static_cast<double>(received_window) / static_cast<double>(expected);
  report_window_max_seq_ = max_seq_seen_;
  report_window_received_ = received_total;

  ControlMessage report{ControlType::kReceiverReport, clip_.info().id()};
  report.value = static_cast<std::uint16_t>(std::min(1000.0, loss * 1000.0 + 0.5));
  const auto bytes = report.encode();
  host_.udp_send(port_, server_, bytes);
  ++reports_sent_;

  if (!eos_received_ && !stream_dead_) {
    host_.loop().post_in(config_.scaling.report_interval,
                         [this] { send_receiver_report(); },
                             obs::EventCategory::kControl);
  }
}

void StreamClient::deliver_app(PacketEvent ev, SimTime now) {
  if (config_.kind == PlayerKind::kMediaPlayer) {
    // Interleaving: the engine releases packets to the application in
    // batches once per app_batch_interval (Figure 12).
    pending_app_.push_back(ev);
    if (!batch_timer_armed_) {
      batch_timer_armed_ = true;
      host_.loop().post_in(config_.wm.app_batch_interval,
                           [this] { release_app_batch(); },
                           obs::EventCategory::kTimer);
    }
  } else {
    ev.app_time = now;
    packets_.push_back(ev);
    app_coverage_.insert(ev.media_offset, ev.media_offset + ev.media_len);
  }
}

void StreamClient::route_to_app(const PacketEvent& ev, SimTime now) {
  if (!multipath_ || multipath_->stopped) {
    deliver_app(ev, now);
    return;
  }
  // Multipath: the join buffer restores global sequence order across the
  // interleaved subflow arrivals before anything reaches the application.
  JoinPacket packet;
  packet.seq = ev.seq;
  packet.media_offset = ev.media_offset;
  packet.media_len = static_cast<std::uint32_t>(ev.media_len);
  packet.flags = ev.flags;
  packet.arrival = ev.network_time;
  auto released = multipath_->join.insert(packet, now);
  if (eos_received_) {
    // The stream is over: nothing lower-sequenced is still in flight worth
    // waiting for, so drain the buffer behind the final packet.
    for (const JoinPacket& held : multipath_->join.flush()) released.push_back(held);
  }
  for (const JoinPacket& out : released) {
    PacketEvent app_ev;
    app_ev.network_time = out.arrival;
    app_ev.seq = out.seq;
    app_ev.media_offset = out.media_offset;
    app_ev.media_len = out.media_len;
    app_ev.flags = out.flags;
    deliver_app(app_ev, now);
  }
}

void StreamClient::note_subflow_arrival(const DataHeader& header, std::size_t media_len,
                                        SimTime now) {
  const int id = header.subflow_id < 2 ? header.subflow_id : 1;
  SubflowRx& rx = multipath_->rx[id];
  ++rx.packets_received;
  rx.media_bytes += media_len;
  if (!rx.any || header.subflow_seq > rx.max_subflow_seq)
    rx.max_subflow_seq = header.subflow_seq;
  rx.any = true;
  rx.last_arrival = now;
  if (!multipath_->report_timer_armed && !multipath_->stopped) {
    multipath_->report_timer_armed = true;
    multipath_->report_timer =
        host_.loop().schedule_in(config_.multipath.report_interval,
                                 [this] { send_path_reports(); },
                                 obs::EventCategory::kControl);
  }
}

void StreamClient::send_path_reports() {
  multipath_->report_timer_armed = false;
  if (multipath_->stopped || eos_received_ || stream_dead_ || session_abandoned_)
    return;
  // One report per subflow that has ever delivered data, each sent over the
  // path it describes — so a dead path's report dies with it and the
  // server-side silence strikes do their job.
  for (int id = 0; id < 2; ++id) {
    const SubflowRx& rx = multipath_->rx[id];
    if (!rx.any) continue;
    ControlMessage report{ControlType::kPathReport, clip_.info().id()};
    report.value = static_cast<std::uint16_t>(id);
    report.offset = (std::uint64_t{rx.max_subflow_seq} << 32) |
                    (rx.packets_received & 0xFFFFFFFFull);
    const auto bytes = report.encode();
    if (id == 0)
      host_.udp_send(port_, server_, bytes);
    else
      host_.udp_send_from(config_.multipath.client_alias, port_,
                          Endpoint{config_.multipath.server_alias, server_.port},
                          bytes);
    ++multipath_->reports_sent;
    if (obs_) obs_->path_reports.add();
  }
  multipath_->report_timer_armed = true;
  multipath_->report_timer =
      host_.loop().schedule_in(config_.multipath.report_interval,
                               [this] { send_path_reports(); },
                               obs::EventCategory::kControl);
}

void StreamClient::attribute_stall() {
  if (!multipath_) return;
  // The responsible path is the stalest one: the subflow whose most recent
  // delivery is oldest is the one starving the join buffer.
  int victim = -1;
  for (int id = 0; id < 2; ++id) {
    const SubflowRx& rx = multipath_->rx[id];
    if (!rx.any) continue;
    if (victim < 0 ||
        rx.last_arrival < multipath_->rx[static_cast<std::size_t>(victim)].last_arrival)
      victim = id;
  }
  if (victim >= 0)
    ++multipath_->rx[static_cast<std::size_t>(victim)].stall_attributions;
}

std::uint64_t StreamClient::subflow_packets_lost(int id) const {
  if (!multipath_) return 0;
  const SubflowRx& rx = multipath_->rx[static_cast<std::size_t>(id)];
  if (!rx.any) return 0;
  const std::uint64_t expected = std::uint64_t{rx.max_subflow_seq} + 1;
  return expected > rx.packets_received ? expected - rx.packets_received : 0;
}

void StreamClient::release_app_batch() {
  const SimTime now = host_.loop().now();
  while (!pending_app_.empty()) {
    PacketEvent ev = pending_app_.front();
    pending_app_.pop_front();
    ev.app_time = now;
    app_coverage_.insert(ev.media_offset, ev.media_offset + ev.media_len);
    packets_.push_back(ev);
  }
  if (eos_received_ || stream_dead_) {
    batch_timer_armed_ = false;
    return;
  }
  host_.loop().post_in(config_.wm.app_batch_interval, [this] { release_app_batch(); },
                           obs::EventCategory::kTimer);
}

void StreamClient::begin_playout(SimTime when) {
  playout_start_ = when;
  if (config_.rebuffering) {
    // Stall-capable playout walks frames one at a time so stalls can shift
    // every later deadline.
    schedule_frame(0);
    return;
  }
  // Drop-late playout: schedule every frame's decode deadline up front; the
  // event loop keeps them ordered and the per-frame closure checks data
  // availability.
  for (std::size_t i = 0; i < clip_.frames().size(); ++i) {
    const SimTime deadline = when + clip_.frames()[i].pts;
    host_.loop().post_at(deadline, [this, i] { decode_frame(i); },
                             obs::EventCategory::kPlayout);
  }
}

void StreamClient::schedule_frame(std::size_t index) {
  if (index >= clip_.frames().size()) {
    playback_finished_ = true;
    playback_end_ = host_.loop().now();
    if (phase_ == audit::SessionPhase::kEstablished)
      enter_phase(audit::SessionPhase::kCompleted);
    return;
  }
  const SimTime deadline = *playout_start_ + playout_shift_ + clip_.frames()[index].pts;
  current_stall_ = Duration::zero();
  host_.loop().post_at(deadline, [this, index] { decode_frame_rebuffering(index); },
                           obs::EventCategory::kPlayout);
}

void StreamClient::abandon_remaining_frames(std::size_t from_index) {
  // Stream declared dead mid-playout: the remaining frames can never be
  // decoded, so account them as dropped at once instead of stalling
  // max_stall on each — this is what lets the event loop drain promptly
  // after a fatal outage.
  frames_dropped_ +=
      static_cast<std::uint32_t>(clip_.frames().size() - from_index);
  playback_end_ = host_.loop().now();
}

void StreamClient::close_stall_interval(SimTime now) {
  if (stall_start_) {
    stalls_.emplace_back(*stall_start_, now);
    stall_start_.reset();
  }
}

void StreamClient::decode_frame_rebuffering(std::size_t index) {
  if (stream_dead_) {
    obs_end_rebuffer(host_.loop().now());
    close_stall_interval(host_.loop().now());
    abandon_remaining_frames(index);
    return;
  }
  const EncodedFrame& frame = clip_.frames()[index];
  const bool ready =
      app_coverage_.covers(frame.byte_offset, frame.byte_offset + frame.bytes);

  if (!ready && current_stall_ < config_.max_stall) {
    // Stall: the picture freezes while the buffer refills.
    if (current_stall_ == Duration::zero()) {
      ++rebuffer_events_;
      stall_start_ = host_.loop().now();
      attribute_stall();
      if (obs_) {
        obs_->rebuffers.add();
        if (obs_->obs->tracing())
          obs_->rebuffer_span = obs_->obs->tracer().begin_span(
              obs_->rebuffer_name, obs_->track, host_.loop().now());
      }
    }
    const Duration poll = Duration::millis(100);
    current_stall_ += poll;
    playout_shift_ += poll;
    total_stall_time_ += poll;
    host_.loop().post_in(poll, [this, index] { decode_frame_rebuffering(index); },
                             obs::EventCategory::kPlayout);
    return;
  }
  obs_end_rebuffer(host_.loop().now());
  close_stall_interval(host_.loop().now());

  FrameEvent ev;
  ev.time = host_.loop().now();
  ev.frame_index = frame.index;
  ev.rendered = ready;
  if (ready)
    ++frames_rendered_;
  else
    ++frames_dropped_;  // abandoned after max_stall
  frame_events_.push_back(ev);
  schedule_frame(index + 1);
}

void StreamClient::decode_frame(std::size_t index) {
  const EncodedFrame& frame = clip_.frames()[index];
  FrameEvent ev;
  ev.time = host_.loop().now();
  ev.frame_index = frame.index;
  // A dead session renders nothing more, even from buffered data.
  ev.rendered = !stream_dead_ &&
                app_coverage_.covers(frame.byte_offset,
                                     frame.byte_offset + frame.bytes);
  if (ev.rendered)
    ++frames_rendered_;
  else
    ++frames_dropped_;
  frame_events_.push_back(ev);

  if (index + 1 == clip_.frames().size()) {
    playback_finished_ = true;
    playback_end_ = host_.loop().now();
    // Pre-scheduled drop-late deadlines keep firing after a watchdog death,
    // so the playout timeline can end in a dead session; only a live one
    // transitions to kCompleted.
    if (phase_ == audit::SessionPhase::kEstablished)
      enter_phase(audit::SessionPhase::kCompleted);
  }
}

std::uint64_t StreamClient::packets_lost() const {
  // Count distinct missing sequences, so duplicated or reordered datagrams
  // never inflate (or deflate) the loss figure. Sequence epochs finished by
  // earlier failovers contribute their accumulated losses.
  std::uint64_t current = 0;
  if (any_seq_seen_) {
    const std::uint64_t expected = max_seq_seen_ + 1;
    const std::uint64_t unique = seq_seen_.total_covered();
    current = expected > unique ? expected - unique : 0;
  }
  return lost_prior_epochs_ + current;
}

BitRate StreamClient::average_playback_rate() const {
  if (!first_data_ || !last_data_ || *last_data_ <= *first_data_) return BitRate::zero();
  const double secs = (*last_data_ - *first_data_).to_seconds();
  const double bits = static_cast<double>(wire_media_bytes_) * 8.0;
  return BitRate(static_cast<std::int64_t>(bits / secs + 0.5));
}

}  // namespace streamlab
