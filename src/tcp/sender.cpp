#include "tcp/sender.hpp"

#include <algorithm>
#include <cstring>

namespace streamlab {

TcpBulkSender::TcpBulkSender(TcpDemux& demux, std::uint16_t local_port, Endpoint remote,
                             std::uint64_t total_bytes, TcpSenderConfig config)
    : demux_(demux),
      port_(local_port),
      remote_(remote),
      total_bytes_(total_bytes),
      config_(config),
      rto_(config.initial_rto) {
  cwnd_ = static_cast<std::uint64_t>(config_.initial_cwnd_segments) * config_.mss;
  demux_.bind(port_, [this](const TcpHeader& tcp, Ipv4Address src,
                            std::span<const std::uint8_t> payload, SimTime now) {
    on_segment(tcp, src, payload, now);
  });
}

TcpBulkSender::~TcpBulkSender() {
  rto_timer_.cancel();
  demux_.unbind(port_);
}

void TcpBulkSender::start() {
  if (state_ != State::kClosed) return;
  state_ = State::kSynSent;
  started_at_ = demux_.host().loop().now();
  TcpHeader syn;
  syn.src_port = port_;
  syn.dst_port = remote_.port;
  syn.flag_syn = true;
  syn.seq = iss_;
  demux_.host().tcp_send(syn, remote_.ip, {});
  ++stats_.segments_sent;
  arm_rto();
}

void TcpBulkSender::record_cwnd(SimTime now) {
  cwnd_trace_.emplace_back(now.to_seconds(), cwnd_segments());
}

void TcpBulkSender::on_segment(const TcpHeader& tcp, Ipv4Address src,
                               std::span<const std::uint8_t>, SimTime now) {
  if (src != remote_.ip || tcp.src_port != remote_.port || !tcp.flag_ack) return;
  rwnd_ = tcp.window;

  if (state_ == State::kSynSent) {
    if (!tcp.flag_syn || tcp.ack != iss_ + 1) return;
    state_ = State::kEstablished;
    rto_timer_.cancel();
    rto_ = config_.initial_rto;
    if (total_bytes_ == 0) {
      send_fin();
      return;
    }
    try_send(now);
    return;
  }

  if (state_ == State::kFinSent) {
    // FIN consumes the sequence number after the last data byte.
    if (tcp.ack >= iss_ + 2 + total_bytes_) {
      state_ = State::kDone;
      finished_at_ = now;
      rto_timer_.cancel();
    }
    return;
  }
  if (state_ != State::kEstablished) return;

  // Stream offset acknowledged (bytes of data, excluding SYN).
  const std::uint64_t acked = tcp.ack - (iss_ + 1);
  if (acked > snd_una_) {
    on_new_ack(acked, now);
  } else if (acked == snd_una_ && flight() > 0) {
    ++dupacks_;
    if (dupacks_ == config_.dupack_threshold) {
      // Fast retransmit (NewReno-lite: halve and resend the hole).
      ssthresh_ = std::max<std::uint64_t>(flight() / 2, 2 * config_.mss);
      cwnd_ = ssthresh_;
      ++stats_.fast_retransmits;
      send_segment(snd_una_, /*retransmission=*/true, now);
      record_cwnd(now);
    }
  }
}

void TcpBulkSender::on_new_ack(std::uint64_t acked_offset, SimTime now) {
  // RTT sample (Karn's rule: only when the probe was never retransmitted).
  if (rtt_probe_offset_ && acked_offset > *rtt_probe_offset_) {
    const Duration sample = now - rtt_probe_sent_;
    if (!srtt_) {
      srtt_ = sample;
      rttvar_ = Duration(sample.ns() / 2);
    } else {
      const Duration err = Duration(std::abs((sample - *srtt_).ns()));
      rttvar_ = Duration((3 * rttvar_.ns() + err.ns()) / 4);
      srtt_ = Duration((7 * srtt_->ns() + sample.ns()) / 8);
    }
    rto_ = std::clamp(Duration(srtt_->ns() + 4 * rttvar_.ns()), config_.min_rto,
                      config_.max_rto);
    rtt_probe_offset_.reset();
  }

  const std::uint64_t newly_acked = acked_offset - snd_una_;
  snd_una_ = acked_offset;
  stats_.bytes_acked = snd_una_;
  dupacks_ = 0;

  // Congestion window growth.
  if (cwnd_ < ssthresh_) {
    cwnd_ += std::min<std::uint64_t>(newly_acked, config_.mss);  // slow start
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::uint64_t>(1, config_.mss * config_.mss / cwnd_);
  }
  record_cwnd(now);

  if (snd_una_ >= total_bytes_) {
    rto_timer_.cancel();
    send_fin();
    return;
  }
  // Restart the timer for the remaining flight.
  rto_timer_.cancel();
  if (flight() > 0) arm_rto();
  try_send(now);
}

void TcpBulkSender::try_send(SimTime now) {
  const std::uint64_t window = std::min<std::uint64_t>(cwnd_, rwnd_);
  while (snd_nxt_ < total_bytes_ && flight() + config_.mss <= window) {
    send_segment(snd_nxt_, /*retransmission=*/false, now);
  }
}

void TcpBulkSender::send_segment(std::uint64_t offset, bool retransmission, SimTime now) {
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(config_.mss, total_bytes_ - offset));
  TcpHeader seg;
  seg.src_port = port_;
  seg.dst_port = remote_.port;
  seg.flag_ack = true;
  seg.seq = iss_ + 1 + static_cast<std::uint32_t>(offset);
  seg.ack = 1;  // we carry no reverse data; peer ISN+1 is implied
  // Synthetic payload bytes, written in place in the segment.
  demux_.host().tcp_send(seg, remote_.ip, len, [offset](std::span<std::uint8_t> out) {
    std::memset(out.data(), static_cast<std::uint8_t>(offset & 0xFF), out.size());
  });
  ++stats_.segments_sent;
  if (retransmission) {
    ++stats_.retransmissions;
    // Karn: a retransmitted range invalidates the outstanding probe.
    rtt_probe_offset_.reset();
  } else {
    if (!rtt_probe_offset_) {
      rtt_probe_offset_ = offset;
      rtt_probe_sent_ = now;
    }
    if (offset == snd_nxt_) snd_nxt_ = offset + len;
  }
  if (!rto_timer_.pending()) arm_rto();
}

void TcpBulkSender::send_fin() {
  state_ = State::kFinSent;
  TcpHeader fin;
  fin.src_port = port_;
  fin.dst_port = remote_.port;
  fin.flag_fin = true;
  fin.flag_ack = true;
  fin.seq = iss_ + 1 + static_cast<std::uint32_t>(total_bytes_);
  fin.ack = 1;
  demux_.host().tcp_send(fin, remote_.ip, {});
  ++stats_.segments_sent;
  arm_rto();
}

void TcpBulkSender::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = demux_.host().loop().schedule_in(rto_, [this] { on_rto(); });
}

void TcpBulkSender::on_rto() {
  if (state_ == State::kDone) return;
  ++stats_.timeouts;
  const SimTime now = demux_.host().loop().now();

  if (state_ == State::kSynSent) {
    TcpHeader syn;
    syn.src_port = port_;
    syn.dst_port = remote_.port;
    syn.flag_syn = true;
    syn.seq = iss_;
    demux_.host().tcp_send(syn, remote_.ip, {});
    ++stats_.segments_sent;
    ++stats_.retransmissions;
  } else if (state_ == State::kFinSent) {
    --stats_.segments_sent;  // send_fin re-counts
    send_fin();
    ++stats_.retransmissions;
  } else {
    // Timeout recovery: multiplicative decrease, go-back-N from snd_una_.
    ssthresh_ = std::max<std::uint64_t>(flight() / 2, 2 * config_.mss);
    cwnd_ = config_.mss;
    dupacks_ = 0;
    snd_nxt_ = snd_una_;
    send_segment(snd_una_, /*retransmission=*/true, now);
    // Go-back-N: the retransmitted segment re-advances snd_nxt_.
    snd_nxt_ = std::max(snd_nxt_, snd_una_ + std::min<std::uint64_t>(
                                                 config_.mss, total_bytes_ - snd_una_));
    record_cwnd(now);
  }
  rto_ = std::min(Duration(rto_.ns() * 2), config_.max_rto);  // backoff
  arm_rto();
}

double TcpBulkSender::mean_throughput_kbps() const {
  if (!started_at_ || !finished_at_ || *finished_at_ <= *started_at_) return 0.0;
  const double secs = (*finished_at_ - *started_at_).to_seconds();
  return static_cast<double>(total_bytes_) * 8.0 / secs / 1000.0;
}

}  // namespace streamlab
