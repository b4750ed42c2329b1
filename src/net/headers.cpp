#include "net/headers.hpp"

#include "net/checksum.hpp"

namespace streamlab {

void EthernetHeader::write(SpanWriter& w) const {
  w.bytes(dst.octets());
  w.bytes(src.octets());
  w.u16be(ethertype);
}

void Ipv4Header::write(SpanWriter& w) const {
  std::uint8_t bytes[kIpv4HeaderSize];
  SpanWriter out(bytes);
  out.u8(0x45);  // version 4, IHL 5
  out.u8(dscp);
  out.u16be(total_length);
  out.u16be(identification);
  std::uint16_t flags_frag = fragment_offset_units & 0x1FFF;
  if (dont_fragment) flags_frag |= 0x4000;
  if (more_fragments) flags_frag |= 0x2000;
  out.u16be(flags_frag);
  out.u8(ttl);
  out.u8(protocol);
  out.u16be(0);  // checksum placeholder
  out.u32be(src.value());
  out.u32be(dst.value());
  store_u16be(bytes + 10, internet_checksum(bytes));
  w.bytes(bytes);
}

void Ipv4Header::encode(ByteWriter& w) const {
  std::uint8_t bytes[kIpv4HeaderSize];
  SpanWriter out(bytes);
  write(out);
  w.bytes(bytes);
}

Expected<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  const auto b = r.bytes(kIpv4HeaderSize);
  if (b.size() != kIpv4HeaderSize) return Unexpected(std::string("truncated IPv4 header"));
  const Ipv4View v{b.data()};
  if (const char* error = v.error()) return Unexpected(std::string(error));
  Ipv4Header h;
  h.dscp = v.dscp();
  h.total_length = v.total_length();
  h.identification = v.identification();
  h.dont_fragment = v.dont_fragment();
  h.more_fragments = v.more_fragments();
  h.fragment_offset_units = v.fragment_offset_units();
  h.ttl = v.ttl();
  h.protocol = v.protocol();
  h.header_checksum = v.header_checksum();
  h.src = Ipv4Address(v.src());
  h.dst = Ipv4Address(v.dst());
  return h;
}

void UdpHeader::write(SpanWriter& w) const {
  w.u16be(src_port);
  w.u16be(dst_port);
  w.u16be(length);
  w.u16be(checksum);
}

void UdpHeader::encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::span<const std::uint8_t> payload) const {
  UdpHeader h = *this;
  h.checksum = 0;
  std::uint8_t bytes[kUdpHeaderSize];
  SpanWriter out(bytes);
  h.write(out);
  store_u16be(bytes + 6, transport_checksum(src_ip, dst_ip, kIpProtoUdp, bytes, payload));
  w.bytes(bytes);
}

Expected<UdpHeader> UdpHeader::decode(ByteReader& r) {
  const auto b = r.bytes(kUdpHeaderSize);
  if (b.size() != kUdpHeaderSize) return Unexpected(std::string("truncated UDP header"));
  const UdpView v{b.data()};
  if (const char* error = v.error()) return Unexpected(std::string(error));
  UdpHeader h;
  h.src_port = v.src_port();
  h.dst_port = v.dst_port();
  h.length = v.length();
  h.checksum = v.checksum();
  return h;
}

void TcpHeader::write(SpanWriter& w) const {
  std::uint16_t off_flags = static_cast<std::uint16_t>(5u << 12);
  if (flag_fin) off_flags |= 0x001;
  if (flag_syn) off_flags |= 0x002;
  if (flag_rst) off_flags |= 0x004;
  if (flag_psh) off_flags |= 0x008;
  if (flag_ack) off_flags |= 0x010;
  w.u16be(src_port);
  w.u16be(dst_port);
  w.u32be(seq);
  w.u32be(ack);
  w.u16be(off_flags);
  w.u16be(window);
  w.u16be(checksum);
  w.u16be(0);  // urgent pointer
}

void TcpHeader::encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::span<const std::uint8_t> payload) const {
  TcpHeader h = *this;
  h.checksum = 0;
  std::uint8_t bytes[kTcpHeaderSize];
  SpanWriter out(bytes);
  h.write(out);
  store_u16be(bytes + 16, transport_checksum(src_ip, dst_ip, kIpProtoTcp, bytes, payload));
  w.bytes(bytes);
}

Expected<TcpHeader> TcpHeader::decode(ByteReader& r) {
  const auto b = r.bytes(kTcpHeaderSize);
  if (b.size() != kTcpHeaderSize) return Unexpected(std::string("truncated TCP header"));
  const TcpView v{b.data()};
  if (const char* error = v.error(kTcpHeaderSize + r.remaining()))
    return Unexpected(std::string(error));
  // Skip the options so the reader is positioned at the payload.
  r.skip(v.options_length());
  TcpHeader h;
  h.src_port = v.src_port();
  h.dst_port = v.dst_port();
  h.seq = v.seq();
  h.ack = v.ack();
  h.flag_syn = v.flag_syn();
  h.flag_ack = v.flag_ack();
  h.flag_fin = v.flag_fin();
  h.flag_rst = v.flag_rst();
  h.flag_psh = v.flag_psh();
  h.window = v.window();
  h.checksum = v.checksum();
  return h;
}

void IcmpHeader::write(SpanWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  w.u16be(checksum);
  w.u16be(identifier);
  w.u16be(sequence);
}

void IcmpHeader::encode(ByteWriter& w, std::span<const std::uint8_t> payload) const {
  IcmpHeader h = *this;
  h.checksum = 0;
  std::uint8_t bytes[kIcmpHeaderSize];
  SpanWriter out(bytes);
  h.write(out);
  ChecksumAccumulator acc;
  acc.add(bytes);
  acc.add(payload);
  store_u16be(bytes + 2, acc.fold());
  w.bytes(bytes);
}

Expected<IcmpHeader> IcmpHeader::decode(ByteReader& r) {
  const auto b = r.bytes(kIcmpHeaderSize);
  if (b.size() != kIcmpHeaderSize) return Unexpected(std::string("truncated ICMP header"));
  const IcmpView v{b.data()};
  IcmpHeader h;
  h.type = static_cast<IcmpType>(v.type());
  h.code = v.code();
  h.checksum = v.checksum();
  h.identifier = v.identifier();
  h.sequence = v.sequence();
  return h;
}

}  // namespace streamlab
