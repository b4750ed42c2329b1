#include "net/packet.hpp"

#include <cstring>

#include "net/checksum.hpp"

namespace streamlab {

namespace {

Ipv4Packet ipv4_packet(std::uint8_t protocol, Ipv4Address src, Ipv4Address dst,
                       std::uint16_t ip_id, std::uint8_t ttl, Buffer payload) {
  Ipv4Packet pkt;
  pkt.header.protocol = protocol;
  pkt.header.identification = ip_id;
  pkt.header.ttl = ttl;
  pkt.header.src = src;
  pkt.header.dst = dst;
  pkt.payload = std::move(payload);
  pkt.header.total_length = static_cast<std::uint16_t>(pkt.total_length());
  return pkt;
}

/// Writes one transport segment into a fresh slab block: `header` with a
/// zero checksum field, the payload by `fill`, then `checksum` of the whole
/// block stored at byte `checksum_at`.
template <typename Header, typename Checksum>
Buffer build_segment(Header header, std::size_t header_size, std::size_t checksum_at,
                     std::size_t payload_len, ByteFill fill, Checksum checksum) {
  header.checksum = 0;
  return Buffer::build(header_size + payload_len, [&](std::span<std::uint8_t> out) {
    SpanWriter w(out);
    header.write(w);
    fill(w.rest());
    store_u16be(out.data() + checksum_at, checksum(std::span<const std::uint8_t>(out)));
  });
}

/// The fill that copies an existing payload.
auto copy_from(std::span<const std::uint8_t> payload) {
  return [payload](std::span<std::uint8_t> out) {
    if (!out.empty()) std::memcpy(out.data(), payload.data(), out.size());
  };
}

}  // namespace

Ipv4Packet make_udp_packet(Endpoint src, Endpoint dst, std::size_t payload_len,
                           ByteFill fill, std::uint16_t ip_id, std::uint8_t ttl) {
  UdpHeader udp;
  udp.src_port = src.port;
  udp.dst_port = dst.port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload_len);
  Buffer segment = build_segment(udp, kUdpHeaderSize, 6, payload_len, fill,
                                 [&](std::span<const std::uint8_t> seg) {
                                   return transport_checksum(src.ip, dst.ip, kIpProtoUdp, seg);
                                 });
  return ipv4_packet(kIpProtoUdp, src.ip, dst.ip, ip_id, ttl, std::move(segment));
}

Ipv4Packet make_udp_packet(Endpoint src, Endpoint dst, std::span<const std::uint8_t> payload,
                           std::uint16_t ip_id, std::uint8_t ttl) {
  return make_udp_packet(src, dst, payload.size(), copy_from(payload), ip_id, ttl);
}

Ipv4Packet make_tcp_packet(Endpoint src, Endpoint dst, const TcpHeader& tcp,
                           std::size_t payload_len, ByteFill fill, std::uint16_t ip_id,
                           std::uint8_t ttl) {
  TcpHeader seg = tcp;
  seg.src_port = src.port;
  seg.dst_port = dst.port;
  Buffer segment = build_segment(seg, kTcpHeaderSize, 16, payload_len, fill,
                                 [&](std::span<const std::uint8_t> bytes) {
                                   return transport_checksum(src.ip, dst.ip, kIpProtoTcp, bytes);
                                 });
  Ipv4Packet pkt = ipv4_packet(kIpProtoTcp, src.ip, dst.ip, ip_id, ttl, std::move(segment));
  pkt.header.dont_fragment = true;  // TCP segments honour path MTU
  return pkt;
}

Ipv4Packet make_tcp_packet(Endpoint src, Endpoint dst, const TcpHeader& tcp,
                           std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                           std::uint8_t ttl) {
  return make_tcp_packet(src, dst, tcp, payload.size(), copy_from(payload), ip_id, ttl);
}

Ipv4Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, const IcmpHeader& icmp,
                            std::size_t payload_len, ByteFill fill, std::uint16_t ip_id,
                            std::uint8_t ttl) {
  Buffer message = build_segment(icmp, kIcmpHeaderSize, 2, payload_len, fill,
                                 [](std::span<const std::uint8_t> bytes) {
                                   return internet_checksum(bytes);
                                 });
  return ipv4_packet(kIpProtoIcmp, src, dst, ip_id, ttl, std::move(message));
}

Ipv4Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, const IcmpHeader& icmp,
                            std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                            std::uint8_t ttl) {
  return make_icmp_packet(src, dst, icmp, payload.size(), copy_from(payload), ip_id, ttl);
}

Frame frame_ipv4(MacAddress src_mac, MacAddress dst_mac, const Ipv4Packet& packet) {
  ByteWriter w(kEthernetHeaderSize + packet.total_length());
  EthernetHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.encode(w);
  packet.header.encode(w);
  w.bytes(packet.payload.bytes());
  return Frame(Buffer::copy_of(w.view()));
}

namespace {

/// Shared parse: fills everything but `out.payload`, reporting the payload's
/// (offset, length) within `frame` so callers can either copy the slice or
/// take a zero-copy view of an owning Buffer.
Expected<std::pair<std::size_t, std::size_t>> parse_frame_headers(
    std::span<const std::uint8_t> frame, ParsedFrame& out) {
  ByteReader r(frame);

  auto eth = EthernetHeader::decode(r);
  if (!eth) return Unexpected(eth.error());
  out.eth = *eth;
  if (out.eth.ethertype != kEtherTypeIpv4)
    return Unexpected(std::string("not an IPv4 frame"));

  auto ip = Ipv4Header::decode(r);
  if (!ip) return Unexpected(ip.error());
  out.ip = *ip;
  if (out.ip.payload_length() > r.remaining())
    return Unexpected(std::string("IPv4 total length exceeds frame"));
  const std::size_t ip_payload_offset = r.offset();
  auto ip_payload = r.bytes(out.ip.payload_length());

  if (out.ip.is_trailing_fragment()) {
    // No transport header: this is a middle/last slice of a larger datagram.
    return std::pair{ip_payload_offset, ip_payload.size()};
  }

  ByteReader tr(ip_payload);
  switch (out.ip.protocol) {
    case kIpProtoUdp: {
      auto udp = UdpHeader::decode(tr);
      if (!udp) return Unexpected(udp.error());
      out.udp = *udp;
      break;
    }
    case kIpProtoTcp: {
      auto tcp = TcpHeader::decode(tr);
      if (!tcp) return Unexpected(tcp.error());
      out.tcp = *tcp;
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = IcmpHeader::decode(tr);
      if (!icmp) return Unexpected(icmp.error());
      out.icmp = *icmp;
      break;
    }
    default:
      break;  // unknown transport: expose raw payload
  }
  return std::pair{ip_payload_offset + tr.offset(), tr.remaining()};
}

}  // namespace

Expected<ParsedFrame> parse_frame(std::span<const std::uint8_t> frame) {
  ParsedFrame out;
  auto slice = parse_frame_headers(frame, out);
  if (!slice) return Unexpected(slice.error());
  out.payload = Buffer::copy_of(frame.subspan(slice->first, slice->second));
  return out;
}

Expected<ParsedFrame> parse_frame(const Frame& frame) {
  ParsedFrame out;
  auto slice = parse_frame_headers(frame.bytes(), out);
  if (!slice) return Unexpected(slice.error());
  out.payload = frame.buffer().view(slice->first, slice->second);
  return out;
}

}  // namespace streamlab
