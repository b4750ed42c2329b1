// Capture records and traces — the unit of data every analysis consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace streamlab {

/// One captured frame, as a sniffer saw it.
struct CaptureRecord {
  SimTime timestamp;
  std::uint32_t original_length = 0;  ///< wire length (may exceed stored bytes)
  std::vector<std::uint8_t> data;     ///< frame bytes, possibly truncated to snaplen
};

/// The record of an IPv4 packet's Ethernet frame, truncated to `snaplen`:
/// the same bytes as frame_ipv4() cut to the snaplen.
CaptureRecord capture_record(SimTime when, MacAddress src_mac, MacAddress dst_mac,
                             const Ipv4Packet& packet, std::uint32_t snaplen);

/// An ordered sequence of captured frames plus capture metadata.
class CaptureTrace {
 public:
  CaptureTrace() = default;
  explicit CaptureTrace(std::uint32_t snaplen) : snaplen_(snaplen) {}

  void reserve(std::size_t records) { records_.reserve(records); }
  void add(CaptureRecord record) { records_.push_back(std::move(record)); }
  /// Appends capture_record(when, src_mac, dst_mac, packet, snaplen()).
  void add_packet(SimTime when, MacAddress src_mac, MacAddress dst_mac,
                  const Ipv4Packet& packet) {
    records_.push_back(capture_record(when, src_mac, dst_mac, packet, snaplen_));
  }

  const std::vector<CaptureRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  std::uint32_t snaplen() const { return snaplen_; }

  /// Total captured wire bytes.
  std::uint64_t total_bytes() const;
  /// Capture duration (last timestamp - first), zero if < 2 records.
  Duration duration() const;

 private:
  std::uint32_t snaplen_ = 65535;
  std::vector<CaptureRecord> records_;
};

}  // namespace streamlab
