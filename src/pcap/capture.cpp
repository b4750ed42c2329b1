#include "pcap/capture.hpp"

#include <algorithm>

namespace streamlab {

CaptureRecord capture_record(SimTime when, MacAddress src_mac, MacAddress dst_mac,
                             const Ipv4Packet& packet, std::uint32_t snaplen) {
  // Only what the snaplen keeps is framed: the Ethernet and IPv4 headers,
  // then the payload prefix, written once into the record.
  constexpr std::size_t kHeaders = kEthernetHeaderSize + kIpv4HeaderSize;
  const std::size_t wire = kEthernetHeaderSize + packet.total_length();
  const std::size_t keep = std::min<std::size_t>(wire, snaplen);
  ByteWriter w(std::max(keep, kHeaders));
  EthernetHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.encode(w);
  packet.header.encode(w);
  if (keep > kHeaders) w.bytes(packet.payload.bytes().first(keep - kHeaders));
  CaptureRecord rec;
  rec.timestamp = when;
  rec.original_length = static_cast<std::uint32_t>(wire);
  rec.data = w.take();
  rec.data.resize(keep);
  return rec;
}

std::uint64_t CaptureTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : records_) total += r.original_length;
  return total;
}

Duration CaptureTrace::duration() const {
  if (records_.size() < 2) return Duration::zero();
  return records_.back().timestamp - records_.front().timestamp;
}

}  // namespace streamlab
