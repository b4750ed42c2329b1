#include "pcap/capture.hpp"

#include <algorithm>

namespace streamlab {

std::span<std::uint8_t> CaptureTrace::append(SimTime when, std::uint32_t original_length,
                                             std::size_t length) {
  const std::size_t offset = bytes_.size();
  bytes_.resize(offset + length);
  index(when, original_length, offset, static_cast<std::uint32_t>(length));
  return {bytes_.data() + offset, length};
}

void CaptureTrace::add_packet(SimTime when, MacAddress src_mac, MacAddress dst_mac,
                              const Ipv4Packet& packet) {
  // The Ethernet and IPv4 headers are laid out whole (the checksum needs
  // all of them), then what the snaplen keeps of them and of the payload
  // is written once into the buffer.
  constexpr std::size_t kHeaders = kEthernetHeaderSize + kIpv4HeaderSize;
  std::uint8_t headers[kHeaders];
  SpanWriter w(headers);
  EthernetHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.write(w);
  packet.header.write(w);

  const std::size_t wire = kEthernetHeaderSize + packet.total_length();
  const std::size_t keep = std::min<std::size_t>(wire, snaplen_);
  const std::span<std::uint8_t> out = append(when, static_cast<std::uint32_t>(wire), keep);
  std::copy_n(headers, std::min(keep, kHeaders), out.begin());
  if (keep > kHeaders)
    std::ranges::copy(packet.payload.bytes().first(keep - kHeaders), out.begin() + kHeaders);
}

void CaptureTrace::pop_back() {
  bytes_.resize(index_.back().offset);
  index_.pop_back();
}

std::uint64_t CaptureTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const Entry& e : index_) total += e.original_length;
  return total;
}

Duration CaptureTrace::duration() const {
  if (index_.size() < 2) return Duration::zero();
  return index_.back().timestamp - index_.front().timestamp;
}

}  // namespace streamlab
