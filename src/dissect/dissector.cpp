#include "dissect/dissector.hpp"

#include <algorithm>

#include "net/headers.hpp"
#include "util/strings.hpp"

namespace streamlab {

std::string DissectedPacket::display(FieldId id) const {
  const std::int64_t value = number(id);
  switch (field_info(id).display) {
    case FieldDisplay::kDecimal:
      return std::to_string(value);
    case FieldDisplay::kIpv4:
      return Ipv4Address(static_cast<std::uint32_t>(value)).to_string();
  }
  return {};
}

std::string DissectedPacket::summary() const {
  using enum FieldId;
  std::string out = fmt_double(timestamp().to_seconds(), 6) + "s";
  if (has(kIpSrc) && has(kIpDst)) out += " IP " + display(kIpSrc) + " > " + display(kIpDst);
  if (has_layer(Layer::kUdp)) {
    out += " UDP " + display(kUdpSrcPort) + "->" + display(kUdpDstPort);
  } else if (has_layer(Layer::kTcp)) {
    out += " TCP " + display(kTcpSrcPort) + "->" + display(kTcpDstPort);
  } else if (has_layer(Layer::kIcmp)) {
    out += " ICMP type=" + display(kIcmpType);
  }
  if (number(kIpFragOffset) > 0) out += " frag@" + display(kIpFragOffset);
  out += " len=" + std::to_string(frame_length());
  return out;
}

namespace {

/// Dissects `record` into `pkt`, a freshly built packet, in one pass: each
/// layer's length is checked once, its view's rule applied, and its fields
/// loaded from their offsets straight into the record.
void dissect_into(DissectedPacket& pkt, const CaptureRecord& record) {
  using enum FieldId;
  pkt.set(kFrameLen, record.original_length);
  pkt.set(kFrameCapLen, static_cast<std::int64_t>(record.data.size()));
  pkt.set(kFrameTimeNs, record.timestamp.ns());

  const std::uint8_t* p = record.data.data();
  std::size_t left = record.data.size();
  if (left < kEthernetHeaderSize) return pkt.add_layer(Layer::kMalformed);
  const EthernetView eth{p};
  pkt.add_layer(Layer::kEth);
  // Presence only: no analysis reads the addresses (they stay in the frame).
  pkt.set(kEthSrc, 0);
  pkt.set(kEthDst, 0);
  pkt.set(kEthType, eth.ethertype());
  if (eth.ethertype() != kEtherTypeIpv4) return;
  p += kEthernetHeaderSize;
  left -= kEthernetHeaderSize;

  if (left < kIpv4HeaderSize) return pkt.add_layer(Layer::kMalformed);
  const Ipv4View ip{p};
  if (ip.error()) return pkt.add_layer(Layer::kMalformed);
  pkt.add_layer(Layer::kIp);
  const std::uint16_t frag_units = ip.fragment_offset_units();
  pkt.set(kIpLen, ip.total_length());
  pkt.set(kIpId, ip.identification());
  pkt.set(kIpFlagsDf, ip.dont_fragment());
  pkt.set(kIpFlagsMf, ip.more_fragments());
  pkt.set(kIpFragOffset, frag_units * 8);
  pkt.set(kIpFragment, ip.more_fragments() || frag_units != 0);
  pkt.set(kIpTtl, ip.ttl());
  pkt.set(kIpProto, ip.protocol());
  pkt.set(kIpSrc, ip.src());
  pkt.set(kIpDst, ip.dst());
  if (frag_units != 0) {
    // Trailing fragments carry no transport header; data bytes only.
    pkt.set(kIpPayloadLen, static_cast<std::int64_t>(ip.payload_length()));
    return;
  }
  p += kIpv4HeaderSize;
  left -= kIpv4HeaderSize;
  const std::size_t segment = std::min(ip.payload_length(), left);

  switch (ip.protocol()) {
    case kIpProtoUdp: {
      const UdpView udp{p};
      if (segment < kUdpHeaderSize || udp.error()) return pkt.add_layer(Layer::kMalformed);
      pkt.add_layer(Layer::kUdp);
      pkt.set(kUdpSrcPort, udp.src_port());
      pkt.set(kUdpDstPort, udp.dst_port());
      pkt.set(kUdpLength, udp.length());
      pkt.set(kUdpChecksum, udp.checksum());
      break;
    }
    case kIpProtoTcp: {
      const TcpView tcp{p};
      if (segment < kTcpHeaderSize || tcp.error(segment)) return pkt.add_layer(Layer::kMalformed);
      pkt.add_layer(Layer::kTcp);
      pkt.set(kTcpSrcPort, tcp.src_port());
      pkt.set(kTcpDstPort, tcp.dst_port());
      pkt.set(kTcpSeq, tcp.seq());
      pkt.set(kTcpAck, tcp.ack());
      pkt.set(kTcpFlagsSyn, tcp.flag_syn());
      pkt.set(kTcpFlagsAck, tcp.flag_ack());
      pkt.set(kTcpFlagsFin, tcp.flag_fin());
      pkt.set(kTcpFlagsRst, tcp.flag_rst());
      pkt.set(kTcpWindow, tcp.window());
      break;
    }
    case kIpProtoIcmp: {
      if (segment < kIcmpHeaderSize) return pkt.add_layer(Layer::kMalformed);
      const IcmpView icmp{p};
      pkt.add_layer(Layer::kIcmp);
      pkt.set(kIcmpType, icmp.type());
      pkt.set(kIcmpCode, icmp.code());
      pkt.set(kIcmpIdent, icmp.identifier());
      pkt.set(kIcmpSeq, icmp.sequence());
      break;
    }
    default:
      break;
  }
}

}  // namespace

DissectedPacket dissect(const CaptureRecord& record) {
  DissectedPacket pkt;
  dissect_into(pkt, record);
  return pkt;
}

std::vector<DissectedPacket> dissect_trace(const CaptureTrace& trace) {
  std::vector<DissectedPacket> out;
  out.reserve(trace.size());
  // Each packet is built where it is stored, not copied there.
  for (const CaptureRecord& rec : trace) dissect_into(out.emplace_back(), rec);
  return out;
}

}  // namespace streamlab
