#include "players/server.hpp"

#include <algorithm>
#include <string>

#include "net/headers.hpp"
#include "util/bytes.hpp"

namespace streamlab {

StreamServer::StreamServer(Host& host, EncodedClip clip, std::uint16_t port)
    : host_(host), clip_(std::move(clip)), port_(port) {
  host_.udp_bind(port_, [this](std::span<const std::uint8_t> payload, Endpoint from,
                               SimTime) { handle_control(payload, from); });
  if (obs::Obs* obs = host_.loop().observer(); obs != nullptr) {
    obs_ = std::make_unique<ObsState>();
    obs_->obs = obs;
    const std::string name = obs_name();
    obs::Tracer& tracer = obs->tracer();
    obs_->track = tracer.intern(name);
    obs_->switch_name = tracer.intern("scaling-switch");
    obs_->keep_name = tracer.intern(name + ".keep_fraction");
  }
}

StreamServer::~StreamServer() {
  if (multipath_) multipath_->strike_timer.cancel();
  if (multipath_icmp_installed_) host_.set_icmp_handler({});
  host_.udp_unbind(port_);
}

void StreamServer::enable_scaling(MediaScalingPolicy policy) {
  policy.enabled = true;
  scaling_ = std::make_unique<ScalingState>(
      ScalingState{ScalingController(std::move(policy)), ThinnedMediaCursor(clip_)});
}

double StreamServer::scaling_keep_fraction() const {
  return scaling_ ? scaling_->controller.keep_fraction() : 1.0;
}

std::size_t StreamServer::scaling_level_changes() const {
  return scaling_ ? scaling_->controller.level_changes() : 0;
}

std::uint32_t StreamServer::frames_thinned() const {
  return scaling_ ? scaling_->cursor.frames_skipped() : 0;
}

void StreamServer::enable_repair(RepairLayerConfig config) {
  repair_ = std::make_unique<RepairState>(RepairState{
      config,
      FecBlockEncoder(config.effective_k(), config.effective_stride()),
      RetransmitBuffer(config.retx_buffer_packets),
      TokenBucketPacer(clip_.info().encoded_rate.scaled(config.pacer_rate_fraction),
                       config.pacer_burst_bytes)});
}

void StreamServer::enable_multipath(MultipathConfig config) {
  config.enabled = true;
  multipath_ = std::make_unique<MultipathState>(config);
  // Destination Unreachable quoting the detour subflow's addresses is the
  // fast-fail signal for that path: drain it immediately, ahead of the
  // report-silence strikes.
  multipath_icmp_installed_ = true;
  host_.set_icmp_handler([this](const IcmpHeader& icmp, const Ipv4Header&,
                                std::span<const std::uint8_t> payload, SimTime now) {
    if (icmp.type != IcmpType::kDestinationUnreachable || !multipath_) return;
    ByteReader reader(payload);
    const auto quoted = Ipv4Header::decode(reader);
    if (!quoted) return;
    if (quoted->dst == multipath_->config.client_alias ||
        quoted->src == multipath_->config.server_alias)
      multipath_->scheduler.on_unreachable(1, now);
  });
}

void StreamServer::on_multipath_tick() {
  if (finished_ || !started_) return;
  multipath_->scheduler.on_strike_tick(host_.loop().now());
  multipath_->strike_timer =
      host_.loop().schedule_in(multipath_->config.report_interval,
                               [this] { on_multipath_tick(); },
                               obs::EventCategory::kControl);
}

void StreamServer::handle_path_report(const ControlMessage& msg) {
  const int id = static_cast<int>(msg.value);
  if (id < 0 || id >= multipath_->scheduler.subflow_count()) return;
  multipath_->scheduler.on_report(id, static_cast<std::uint32_t>(msg.offset >> 32),
                                  static_cast<std::uint32_t>(msg.offset),
                                  host_.loop().now());
}

void StreamServer::handle_control(std::span<const std::uint8_t> payload, Endpoint from) {
  auto msg = ControlMessage::decode(payload);
  if (!msg) return;
  switch (msg->type) {
    case ControlType::kPlayRequest: {
      if (!msg->clip_id.empty() && msg->clip_id != clip_.info().id()) return;
      if (started_) {
        // Duplicate PLAY (a client retransmission whose predecessor — or
        // whose PLAY-OK — was lost). Re-acknowledge idempotently so client
        // retries are always safe; never restart the send schedule.
        if (from == client_) {
          ++stats_.duplicate_play_requests;
          ControlMessage ok{ControlType::kPlayOk, clip_.info().id()};
          const auto ok_bytes = ok.encode();
          host_.udp_send(port_, client_, ok_bytes);
        }
        return;  // single-session server: other endpoints are ignored
      }
      started_ = true;
      audit_transition(audit::SessionPhase::kStreaming);
      client_ = from;
      if (msg->offset > 0) resume_from(msg->offset);
      ControlMessage ok{ControlType::kPlayOk, clip_.info().id()};
      const auto ok_bytes = ok.encode();
      host_.udp_send(port_, client_, ok_bytes);
      if (multipath_) on_multipath_tick();  // arm the report-silence strikes
      on_play();
      break;
    }
    case ControlType::kReceiverReport:
      if (scaling_ && started_ && from == client_) {
        const std::size_t changes_before = scaling_->controller.level_changes();
        scaling_->controller.on_report(static_cast<double>(msg->value) / 1000.0,
                                       host_.loop().now());
        if (obs_ && scaling_->controller.level_changes() != changes_before)
          on_scaling_switch();
      }
      break;
    case ControlType::kNack:
      if (repair_ && repair_->config.nack && started_ && from == client_)
        handle_nack(*msg);
      break;
    case ControlType::kPathReport:
      // Subflow 1 reports arrive from the client's alias address (they ride
      // the path they describe), so the source gate admits both identities.
      if (multipath_ && started_ && from.port == client_.port &&
          (from.ip == client_.ip || from.ip == multipath_->config.client_alias))
        handle_path_report(*msg);
      break;
    case ControlType::kTeardown:
      finish_stream();
      break;
    default:
      break;
  }
}

void StreamServer::handle_nack(const ControlMessage& msg) {
  ++stats_.nacks_received;
  const SimTime now = host_.loop().now();
  for (const std::uint32_t seq : nack_requested_seqs(msg)) {
    const auto entry = repair_->buffer.lookup(seq);
    if (!entry) {
      ++stats_.retx_unavailable;
      continue;
    }
    const std::size_t wire_bytes = kDataHeaderSize + entry->media_len;
    if (!repair_->pacer.try_consume(now, wire_bytes)) {
      // Out of tokens: drop this retransmission; the client's retry budget
      // re-requests it after another RTT-scaled delay.
      ++stats_.retx_suppressed;
      continue;
    }
    DataHeader header;
    header.seq = entry->seq;
    header.media_offset = entry->media_offset;
    header.flags = entry->flags | kFlagRetransmit;
    const std::size_t size = header.wire_size(entry->media_len);
    host_.udp_send(port_, client_, size,
                   [&header](std::span<std::uint8_t> out) { header.write(out); });
    ++stats_.retx_packets;
    stats_.retx_bytes += size;
  }
}

void StreamServer::send_parity(const ParityOut& parity) {
  const std::size_t size = ParityHeader::wire_size(parity.pad_len);
  host_.udp_send(port_, client_, size,
                 [&parity](std::span<std::uint8_t> out) { parity.header.write(out); });
  ++stats_.parity_packets;
  stats_.parity_bytes += size;
}

void StreamServer::resume_from(std::uint64_t offset) {
  offset = std::min<std::uint64_t>(offset, clip_.total_bytes());
  next_offset_ = offset;
  if (scaling_) scaling_->cursor.seek(offset);
}

void StreamServer::emit(std::uint64_t offset, std::size_t media_len, std::uint8_t flags,
                        bool buffering_phase) {
  const SimTime now = host_.loop().now();
  DataHeader header;
  header.seq = next_seq_++;
  header.media_offset = offset;
  header.flags = flags | (buffering_phase ? kFlagBufferingPhase : 0);
  if (multipath_) {
    // Striping: the health-driven scheduler picks the subflow, the wire form
    // carries the multipath extension, and subflow 1 travels alias-to-alias
    // so the steering routes pin it to the detour. The repair layer below is
    // fed the *canonical* header — striping never perturbs the FEC/NACK
    // sequence spaces, and retransmissions replay canonically on the primary.
    const int id = multipath_->scheduler.pick(now);
    DataHeader wire = header;
    wire.flags |= kFlagMultipath;
    wire.subflow_id = static_cast<std::uint8_t>(id);
    wire.subflow_seq = multipath_->scheduler.stamp(id, media_len, now);
    const auto fill = [&wire](std::span<std::uint8_t> out) { wire.write(out); };
    if (id == 0)
      host_.udp_send(port_, client_, wire.wire_size(media_len), fill);
    else
      host_.udp_send_from(multipath_->config.server_alias, port_,
                          subflow1_destination(), wire.wire_size(media_len), fill);
  } else {
    host_.udp_send(port_, client_, header.wire_size(media_len),
                   [&header](std::span<std::uint8_t> out) { header.write(out); });
  }
  if (stats_.packets_sent++ == 0) stats_.first_send = now;
  stats_.last_send = now;
  if (on_send_) on_send_(SendEvent{now, header.seq, offset, media_len, buffering_phase});
  if (repair_) {
    repair_->buffer.store(header.seq, offset, static_cast<std::uint32_t>(media_len),
                          header.flags);
    if (repair_->config.fec_enabled()) {
      for (const ParityOut& parity : repair_->encoder.feed(
               header.seq, offset, static_cast<std::uint32_t>(media_len), header.flags))
        send_parity(parity);
      // End of stream closes the partial parity rows (reduced k), so the
      // clip tail is covered too.
      if (header.flags & kFlagEndOfStream)
        for (const ParityOut& parity : repair_->encoder.flush()) send_parity(parity);
    }
  }
}

std::size_t StreamServer::send_plain(std::size_t media_len, bool buffering_phase) {
  media_len =
      static_cast<std::size_t>(std::min<std::uint64_t>(media_len, remaining_bytes()));
  if (media_len == 0) {
    finish_stream();
    return 0;
  }
  const std::uint64_t offset = next_offset_;
  next_offset_ += media_len;
  std::uint8_t flags = 0;
  if (next_offset_ >= clip_.total_bytes()) {
    flags |= kFlagEndOfStream;
    finish_stream();
  }
  emit(offset, media_len, flags, buffering_phase);
  return media_len;
}

std::size_t StreamServer::send_thinned(std::size_t media_len, bool buffering_phase) {
  auto& cursor = scaling_->cursor;
  const auto range = cursor.next(media_len, scaling_->controller.keep_fraction());
  if (range.length == 0) {
    // Stream exhausted: announce end-of-stream explicitly (the last data
    // packet may have been sent before the final thinning decision).
    if (!finished_) {
      emit(cursor.position(), 0, kFlagEndOfStream, buffering_phase);
      finish_stream();
    }
    return 0;
  }
  std::uint8_t flags = 0;
  if (range.end_of_stream) {
    flags |= kFlagEndOfStream;
    finish_stream();
  }
  emit(range.offset, range.length, flags, buffering_phase);
  return range.length;
}

void StreamServer::audit_transition(audit::SessionPhase to) {
  if (audit::Auditor* auditor = host_.loop().auditor(); auditor != nullptr)
    auditor->on_session_transition("server", audit_phase_, to, host_.loop().now());
  audit_phase_ = to;
}

void StreamServer::finish_stream() {
  if (finished_) return;
  finished_ = true;
  // A stream that ends without an end-of-stream data packet (teardown, zero
  // remaining bytes) still flushes its open parity rows.
  if (repair_ && repair_->config.fec_enabled() && started_)
    for (const ParityOut& parity : repair_->encoder.flush()) send_parity(parity);
  // A teardown that arrives before any PLAY leaves the session in kIdle:
  // it never streamed, so there is no lifecycle transition to report.
  if (audit_phase_ == audit::SessionPhase::kStreaming)
    audit_transition(audit::SessionPhase::kFinished);
}

std::size_t StreamServer::send_media(std::size_t media_len, bool buffering_phase) {
  if (finished_) return 0;
  return scaling_ ? send_thinned(media_len, buffering_phase)
                  : send_plain(media_len, buffering_phase);
}

void StreamServer::on_scaling_switch() {
  const SimTime now = host_.loop().now();
  const double keep = scaling_->controller.keep_fraction();
  if (obs_->obs->tracing()) {
    obs_->obs->tracer().instant(obs_->switch_name, obs_->track, now, keep);
    obs_->obs->tracer().sample_always(obs_->keep_name, now, keep);
  }
}

std::string StreamServer::obs_name() const {
  return port_ == kRealServerPort    ? "server.rm"
         : port_ == kMediaServerPort ? "server.wm"
                                     : "server." + std::to_string(port_);
}

Duration StreamServer::streaming_duration() const {
  if (stats_.packets_sent < 2) return Duration::zero();
  return stats_.last_send - stats_.first_send;
}

WmServer::WmServer(Host& host, EncodedClip clip, WmBehavior behavior, std::uint16_t port)
    : StreamServer(host, std::move(clip), port), behavior_(behavior) {}

void WmServer::on_play() {
  const BitRate rate = clip_.info().encoded_rate;
  datagram_media_ = behavior_.media_per_datagram(rate);
  interval_ = behavior_.send_interval(rate, datagram_media_);
  send_next();
}

void WmServer::send_next() {
  const std::size_t sent = send_media(datagram_media_, /*buffering_phase=*/false);
  if (sent == 0 || finished_) return;
  // Under media scaling the pace follows the thinned rate: this datagram's
  // bytes at keep_fraction x the encoding rate.
  Duration next = interval_;
  if (scaling_enabled()) {
    const BitRate scaled_rate =
        clip_.info().encoded_rate.scaled(scaling_keep_fraction());
    next = behavior_.send_interval(scaled_rate, sent);
  }
  host_.loop().post_in(next, [this] { send_next(); }, obs::EventCategory::kTimer);
}

RmServer::RmServer(Host& host, EncodedClip clip, RmBehavior behavior, std::uint16_t port,
                   std::uint64_t seed)
    : StreamServer(host, std::move(clip), port), behavior_(behavior), rng_(seed) {}

void RmServer::on_play() {
  const BitRate rate = clip_.info().encoded_rate;
  burst_end_ = host_.loop().now() +
               behavior_.burst_duration_for_clip(rate, clip_.info().length);
  mean_media_ = behavior_.mean_media_per_datagram(rate);
  send_next();
}

void RmServer::send_next() {
  const bool buffering = host_.loop().now() < burst_end_;
  const BitRate base_rate =
      clip_.info().encoded_rate.scaled(scaling_keep_fraction());
  const BitRate send_rate =
      buffering ? base_rate.scaled(behavior_.buffering_ratio(base_rate)) : base_rate;

  // Draw this packet's size: right-skewed around the rate-dependent mean
  // (mean-1 multiplier keeps the long-run rate on target).
  const double frac =
      std::clamp(rng_.lognormal_mean_cv(1.0, behavior_.size_cv),
                 behavior_.size_spread_min, behavior_.size_spread_max);
  const auto media_len = std::clamp(
      static_cast<std::size_t>(static_cast<double>(mean_media_) * frac + 0.5),
      behavior_.min_media_per_datagram, behavior_.max_media_per_datagram);

  const std::size_t sent = send_media(media_len, buffering);
  if (sent == 0 || finished_) return;

  // Pacing preserves the phase's target rate on average; the lognormal
  // multiplier (mean 1) produces the wide interarrival spread of Figure 8.
  const Duration base = send_rate.transmission_time(sent);
  const double jitter = rng_.lognormal_mean_cv(1.0, behavior_.interarrival_cv);
  host_.loop().post_in(base.scaled(jitter), [this] { send_next(); },
                           obs::EventCategory::kTimer);
}

std::unique_ptr<StreamServer> make_server(Host& host, const EncodedClip& encoded,
                                          const WmBehavior& wm, const RmBehavior& rm,
                                          std::uint64_t rm_seed) {
  if (encoded.info().player == PlayerKind::kMediaPlayer)
    return std::make_unique<WmServer>(host, encoded, wm, kMediaServerPort);
  return std::make_unique<RmServer>(host, encoded, rm, kRealServerPort, rm_seed);
}

}  // namespace streamlab
