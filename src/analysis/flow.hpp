// Per-flow packet analysis: extracts one streaming flow from a dissected
// capture and derives the series behind Figures 4-9 — arrival sequences,
// packet sizes, interarrival times, and the IP-fragmentation census.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dissect/dissector.hpp"
#include "net/address.hpp"

namespace streamlab {

/// One packet of an extracted flow, in arrival order.
struct FlowPacket {
  SimTime time;
  std::uint32_t wire_length = 0;
  bool trailing_fragment = false;  ///< an IP fragment with offset > 0
  bool first_of_group = true;      ///< first packet of its IP datagram
  std::uint16_t ip_id = 0;
};

/// A unidirectional flow (server -> client) extracted from a capture.
class FlowTrace {
 public:
  /// Selects packets with the given source address, of UDP protocol; when
  /// `dst_port` is set, datagram-leading packets must match it (trailing
  /// fragments carry no UDP header and are matched by source + IP id
  /// continuity, exactly how one isolates a flow in Ethereal).
  static FlowTrace extract(const std::vector<DissectedPacket>& packets, Ipv4Address src,
                           std::optional<std::uint16_t> dst_port = std::nullopt);
  /// Appends `packet` when extract(…, src, dst_port) would select it: a
  /// flow built one captured frame at a time.
  void add(const DissectedPacket& packet, Ipv4Address src,
           std::optional<std::uint16_t> dst_port = std::nullopt);

  const std::vector<FlowPacket>& packets() const { return packets_; }
  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }

  /// Fraction of packets that are trailing IP fragments — the y-axis of
  /// Figure 5.
  double fragment_fraction() const;
  std::size_t fragment_count() const;

  /// Wire packet sizes in bytes, optionally excluding trailing fragments.
  std::vector<double> packet_sizes(bool include_fragments = true) const;

  /// Interarrival gaps in seconds. With `groups_only`, only datagram-leading
  /// packets are considered — the paper's de-noising for high-rate
  /// MediaPlayer flows (Figure 9: "only the first UDP packet in each packet
  /// group").
  std::vector<double> interarrivals(bool groups_only = false) const;

  /// (arrival time seconds, packet index) pairs — the axes of Figure 4.
  std::vector<std::pair<double, std::uint32_t>> arrival_sequence() const;

  /// Bytes received per window, as (window start seconds, Kbps) — Figure 10.
  std::vector<std::pair<double, double>> bandwidth_timeline(Duration window) const;

  /// Total flow bytes and duration.
  std::uint64_t total_bytes() const;
  Duration duration() const;
  /// Mean throughput across the whole flow, in Kbps.
  double mean_rate_kbps() const;

 private:
  std::vector<FlowPacket> packets_;
};

}  // namespace streamlab
