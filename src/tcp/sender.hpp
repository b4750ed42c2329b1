// TCP bulk sender: a Reno-style one-way transfer with slow start,
// congestion avoidance, fast retransmit, go-back-N timeout recovery and
// Karn-clamped RTT estimation — enough congestion-control fidelity to act
// as the responsive counterpart in the paper's proposed TCP-friendliness
// experiments (Section VI).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tcp/demux.hpp"

namespace streamlab {

struct TcpSenderConfig {
  std::size_t mss = 1400;
  std::uint32_t initial_cwnd_segments = 2;
  Duration initial_rto = Duration::millis(1000);
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(60);
  int dupack_threshold = 3;
};

class TcpBulkSender {
 public:
  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t bytes_acked = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
  };

  /// Prepares a transfer of `total_bytes` to `remote`. Call start() to
  /// begin the handshake.
  TcpBulkSender(TcpDemux& demux, std::uint16_t local_port, Endpoint remote,
                std::uint64_t total_bytes, TcpSenderConfig config = {});
  ~TcpBulkSender();

  void start();

  bool connected() const { return state_ >= State::kEstablished; }
  bool done() const { return state_ == State::kDone; }
  const Stats& stats() const { return stats_; }
  double cwnd_segments() const {
    return static_cast<double>(cwnd_) / static_cast<double>(config_.mss);
  }
  /// (seconds, cwnd in segments) sampled at every congestion event and ACK.
  const std::vector<std::pair<double, double>>& cwnd_trace() const { return cwnd_trace_; }
  std::optional<Duration> smoothed_rtt() const { return srtt_; }

 private:
  enum class State { kClosed, kSynSent, kEstablished, kFinSent, kDone };

  void on_segment(const TcpHeader& tcp, Ipv4Address src,
                  std::span<const std::uint8_t> payload, SimTime now);
  void on_new_ack(std::uint64_t acked_offset, SimTime now);
  void try_send(SimTime now);
  void send_segment(std::uint64_t offset, bool retransmission, SimTime now);
  void send_fin();
  void arm_rto();
  void on_rto();
  void record_cwnd(SimTime now);
  std::uint64_t flight() const { return snd_nxt_ - snd_una_; }

  TcpDemux& demux_;
  std::uint16_t port_;
  Endpoint remote_;
  std::uint64_t total_bytes_;
  TcpSenderConfig config_;

  State state_ = State::kClosed;
  std::uint32_t iss_ = 0x2000;
  std::uint64_t snd_una_ = 0;  ///< first unacked stream offset
  std::uint64_t snd_nxt_ = 0;  ///< next stream offset to send
  std::uint64_t cwnd_ = 0;     ///< bytes
  std::uint64_t ssthresh_ = 1 << 30;
  std::uint64_t rwnd_ = 65535;
  int dupacks_ = 0;

  // RTT estimation (one probe in flight; invalidated by retransmission).
  std::optional<std::uint64_t> rtt_probe_offset_;
  SimTime rtt_probe_sent_;
  std::optional<Duration> srtt_;
  Duration rttvar_ = Duration::zero();
  Duration rto_;

  EventHandle rto_timer_;
  Stats stats_;
  std::vector<std::pair<double, double>> cwnd_trace_;
};

}  // namespace streamlab
