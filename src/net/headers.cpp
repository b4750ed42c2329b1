#include "net/headers.hpp"

#include "net/checksum.hpp"

namespace streamlab {

void EthernetHeader::encode(ByteWriter& w) const {
  w.bytes(dst.octets());
  w.bytes(src.octets());
  w.u16be(ethertype);
}

Expected<EthernetHeader> EthernetHeader::decode(ByteReader& r) {
  EthernetHeader h;
  auto dst_bytes = r.bytes(6);
  auto src_bytes = r.bytes(6);
  h.ethertype = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated Ethernet header"));
  std::array<std::uint8_t, 6> tmp{};
  std::copy(dst_bytes.begin(), dst_bytes.end(), tmp.begin());
  h.dst = MacAddress(tmp);
  std::copy(src_bytes.begin(), src_bytes.end(), tmp.begin());
  h.src = MacAddress(tmp);
  return h;
}

void Ipv4Header::encode(ByteWriter& w) const {
  const std::size_t start = w.size();
  w.u8(0x45);  // version 4, IHL 5
  w.u8(dscp);
  w.u16be(total_length);
  w.u16be(identification);
  std::uint16_t flags_frag = fragment_offset_units & 0x1FFF;
  if (dont_fragment) flags_frag |= 0x4000;
  if (more_fragments) flags_frag |= 0x2000;
  w.u16be(flags_frag);
  w.u8(ttl);
  w.u8(protocol);
  w.u16be(0);  // checksum placeholder
  w.u32be(src.value());
  w.u32be(dst.value());
  const auto header = w.view().subspan(start, kIpv4HeaderSize);
  w.patch_u16be(start + 10, internet_checksum(header));
}

Expected<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  const auto header_view = r.bytes(kIpv4HeaderSize);
  if (header_view.size() != kIpv4HeaderSize)
    return Unexpected(std::string("truncated IPv4 header"));
  ByteReader hr(header_view);
  Ipv4Header h;
  const std::uint8_t ver_ihl = hr.u8();
  if ((ver_ihl >> 4) != 4) return Unexpected(std::string("not IPv4"));
  if ((ver_ihl & 0x0F) != 5)
    return Unexpected(std::string("IPv4 options unsupported"));
  h.dscp = hr.u8();
  h.total_length = hr.u16be();
  h.identification = hr.u16be();
  const std::uint16_t flags_frag = hr.u16be();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.fragment_offset_units = flags_frag & 0x1FFF;
  h.ttl = hr.u8();
  h.protocol = hr.u8();
  h.header_checksum = hr.u16be();
  h.src = Ipv4Address(hr.u32be());
  h.dst = Ipv4Address(hr.u32be());
  if (internet_checksum(header_view) != 0)
    return Unexpected(std::string("bad IPv4 header checksum"));
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
  UdpHeader h;
  h.src_port = r.u16be();
  h.dst_port = r.u16be();
  h.length = r.u16be();
  h.checksum = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated UDP header"));
  if (h.length < kUdpHeaderSize) return Unexpected(std::string("bad UDP length"));
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
  TcpHeader h;
  h.src_port = r.u16be();
  h.dst_port = r.u16be();
  h.seq = r.u32be();
  h.ack = r.u32be();
  const std::uint16_t off_flags = r.u16be();
  h.window = r.u16be();
  h.checksum = r.u16be();
  r.u16be();  // urgent pointer
  if (!r.ok()) return Unexpected(std::string("truncated TCP header"));
  const unsigned data_offset = off_flags >> 12;
  if (data_offset < 5) return Unexpected(std::string("bad TCP data offset"));
  // Skip TCP options so the reader is positioned at the payload.
  r.skip((data_offset - 5) * 4);
  if (!r.ok()) return Unexpected(std::string("truncated TCP options"));
  h.flag_fin = off_flags & 0x001;
  h.flag_syn = off_flags & 0x002;
  h.flag_rst = off_flags & 0x004;
  h.flag_psh = off_flags & 0x008;
  h.flag_ack = off_flags & 0x010;
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
  IcmpHeader h;
  h.type = static_cast<IcmpType>(r.u8());
  h.code = r.u8();
  h.checksum = r.u16be();
  h.identifier = r.u16be();
  h.sequence = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated ICMP header"));
  return h;
}

}  // namespace streamlab
