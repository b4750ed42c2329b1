#include "dissect/dissector.hpp"

#include <algorithm>

#include "net/headers.hpp"
#include "util/strings.hpp"

namespace streamlab {

std::string DissectedPacket::display(FieldId id) const {
  const std::int64_t value = slots_[index_of(id)];
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
  std::string out = fmt_double(timestamp.to_seconds(), 6) + "s";
  if (has(kIpSrc) && has(kIpDst)) out += " IP " + display(kIpSrc) + " > " + display(kIpDst);
  if (has_layer(Layer::kUdp)) {
    out += " UDP " + display(kUdpSrcPort) + "->" + display(kUdpDstPort);
  } else if (has_layer(Layer::kTcp)) {
    out += " TCP " + display(kTcpSrcPort) + "->" + display(kTcpDstPort);
  } else if (has_layer(Layer::kIcmp)) {
    out += " ICMP type=" + display(kIcmpType);
  }
  if (number(kIpFragOffset) > 0) out += " frag@" + display(kIpFragOffset);
  out += " len=" + std::to_string(frame_length);
  return out;
}

namespace {

/// Dissects `record` into `pkt`, a freshly built packet.
void dissect_into(DissectedPacket& pkt, const CaptureRecord& record) {
  using enum FieldId;
  pkt.timestamp = record.timestamp;
  pkt.frame_length = record.original_length;
  pkt.set(kFrameLen, static_cast<std::int64_t>(record.original_length));
  pkt.set(kFrameCapLen, static_cast<std::int64_t>(record.data.size()));
  pkt.set(kFrameTimeNs, record.timestamp.ns());

  ByteReader r(record.data);
  auto eth = EthernetHeader::decode(r);
  if (!eth) {
    pkt.add_layer(Layer::kMalformed);
    return;
  }
  pkt.add_layer(Layer::kEth);
  // Presence only: no analysis reads the addresses (they stay in the frame).
  pkt.set(kEthSrc, 0);
  pkt.set(kEthDst, 0);
  pkt.set(kEthType, eth->ethertype);
  if (eth->ethertype != kEtherTypeIpv4) return;

  auto ip = Ipv4Header::decode(r);
  if (!ip) {
    pkt.add_layer(Layer::kMalformed);
    return;
  }
  pkt.add_layer(Layer::kIp);
  pkt.set(kIpLen, ip->total_length);
  pkt.set(kIpId, ip->identification);
  pkt.set(kIpFlagsDf, ip->dont_fragment ? 1 : 0);
  pkt.set(kIpFlagsMf, ip->more_fragments ? 1 : 0);
  pkt.set(kIpFragOffset, static_cast<std::int64_t>(ip->fragment_offset_bytes()));
  pkt.set(kIpFragment, ip->is_fragment() ? 1 : 0);
  pkt.set(kIpTtl, ip->ttl);
  pkt.set(kIpProto, ip->protocol);
  pkt.set(kIpSrc, ip->src.value());
  pkt.set(kIpDst, ip->dst.value());

  if (ip->is_trailing_fragment()) {
    // Trailing fragments carry no transport header; data bytes only.
    pkt.set(kIpPayloadLen, static_cast<std::int64_t>(ip->payload_length()));
    return;
  }

  const std::size_t ip_payload = std::min<std::size_t>(ip->payload_length(), r.remaining());
  ByteReader tr(r.bytes(ip_payload));

  switch (ip->protocol) {
    case kIpProtoUdp: {
      auto udp = UdpHeader::decode(tr);
      if (!udp) {
        pkt.add_layer(Layer::kMalformed);
        return;
      }
      pkt.add_layer(Layer::kUdp);
      pkt.set(kUdpSrcPort, udp->src_port);
      pkt.set(kUdpDstPort, udp->dst_port);
      pkt.set(kUdpLength, udp->length);
      pkt.set(kUdpChecksum, udp->checksum);
      break;
    }
    case kIpProtoTcp: {
      auto tcp = TcpHeader::decode(tr);
      if (!tcp) {
        pkt.add_layer(Layer::kMalformed);
        return;
      }
      pkt.add_layer(Layer::kTcp);
      pkt.set(kTcpSrcPort, tcp->src_port);
      pkt.set(kTcpDstPort, tcp->dst_port);
      pkt.set(kTcpSeq, tcp->seq);
      pkt.set(kTcpAck, tcp->ack);
      pkt.set(kTcpFlagsSyn, tcp->flag_syn ? 1 : 0);
      pkt.set(kTcpFlagsAck, tcp->flag_ack ? 1 : 0);
      pkt.set(kTcpFlagsFin, tcp->flag_fin ? 1 : 0);
      pkt.set(kTcpFlagsRst, tcp->flag_rst ? 1 : 0);
      pkt.set(kTcpWindow, tcp->window);
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = IcmpHeader::decode(tr);
      if (!icmp) {
        pkt.add_layer(Layer::kMalformed);
        return;
      }
      pkt.add_layer(Layer::kIcmp);
      pkt.set(kIcmpType, static_cast<std::int64_t>(icmp->type));
      pkt.set(kIcmpCode, icmp->code);
      pkt.set(kIcmpIdent, icmp->identifier);
      pkt.set(kIcmpSeq, icmp->sequence);
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
