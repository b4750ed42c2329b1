#include "net/headers.hpp"

#include <algorithm>

#include "net/checksum.hpp"

namespace streamlab {

void EthernetHeader::write(SpanWriter& w) const {
  w.bytes(dst.octets());
  w.bytes(src.octets());
  w.u16be(ethertype);
}

Expected<EthernetHeader> EthernetHeader::decode(ByteReader& r) {
  const auto b = r.bytes(kEthernetHeaderSize);
  if (b.size() != kEthernetHeaderSize) return Unexpected(std::string("truncated Ethernet header"));
  EthernetHeader h;
  std::array<std::uint8_t, 6> mac;
  std::copy_n(b.data(), mac.size(), mac.begin());
  h.dst = MacAddress(mac);
  std::copy_n(b.data() + 6, mac.size(), mac.begin());
  h.src = MacAddress(mac);
  h.ethertype = load_u16be(b.data() + 12);
  return h;
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

namespace {

/// internet_checksum(header) == 0 for a 20-byte IPv4 header, unrolled: the
/// RFC 1071 sum of its five 32-bit words folded to 16 bits is 0xFFFF
/// exactly when the header checksum verifies (the sum is 0 only when
/// every byte is).
bool header_checksum_verifies(const std::uint8_t* p) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kIpv4HeaderSize; i += 4) sum += load_u32be(p + i);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return sum == 0xFFFF;
}

}  // namespace

Expected<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  const auto b = r.bytes(kIpv4HeaderSize);
  if (b.size() != kIpv4HeaderSize) return Unexpected(std::string("truncated IPv4 header"));
  const std::uint8_t* p = b.data();
  if ((p[0] >> 4) != 4) return Unexpected(std::string("not IPv4"));
  if ((p[0] & 0x0F) != 5) return Unexpected(std::string("IPv4 options unsupported"));
  Ipv4Header h;
  h.dscp = p[1];
  h.total_length = load_u16be(p + 2);
  h.identification = load_u16be(p + 4);
  const std::uint16_t flags_frag = load_u16be(p + 6);
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.fragment_offset_units = flags_frag & 0x1FFF;
  h.ttl = p[8];
  h.protocol = p[9];
  h.header_checksum = load_u16be(p + 10);
  h.src = Ipv4Address(load_u32be(p + 12));
  h.dst = Ipv4Address(load_u32be(p + 16));
  if (!header_checksum_verifies(p)) return Unexpected(std::string("bad IPv4 header checksum"));
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
  UdpHeader h;
  h.src_port = load_u16be(b.data());
  h.dst_port = load_u16be(b.data() + 2);
  h.length = load_u16be(b.data() + 4);
  h.checksum = load_u16be(b.data() + 6);
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
  const auto b = r.bytes(kTcpHeaderSize);
  if (b.size() != kTcpHeaderSize) return Unexpected(std::string("truncated TCP header"));
  const std::uint8_t* p = b.data();
  TcpHeader h;
  h.src_port = load_u16be(p);
  h.dst_port = load_u16be(p + 2);
  h.seq = load_u32be(p + 4);
  h.ack = load_u32be(p + 8);
  const std::uint16_t off_flags = load_u16be(p + 12);
  h.window = load_u16be(p + 14);
  h.checksum = load_u16be(p + 16);
  // Bytes 18-19: the urgent pointer, unused.
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
  const auto b = r.bytes(kIcmpHeaderSize);
  if (b.size() != kIcmpHeaderSize) return Unexpected(std::string("truncated ICMP header"));
  IcmpHeader h;
  h.type = static_cast<IcmpType>(b[0]);
  h.code = b[1];
  h.checksum = load_u16be(b.data() + 2);
  h.identifier = load_u16be(b.data() + 4);
  h.sequence = load_u16be(b.data() + 6);
  return h;
}

}  // namespace streamlab
