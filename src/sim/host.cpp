#include "sim/host.hpp"

#include <algorithm>
#include <cstring>

namespace streamlab {

// The MAC is derived from the host's IPv4 address rather than a global NIC
// counter: addresses are unique within a topology, the derivation is
// deterministic regardless of how many trials ran before (or run
// concurrently on other threads), and it removes the last mutable global
// the parallel campaign runner would otherwise race on.
Host::Host(EventLoop& loop, std::string name, Ipv4Address address, std::size_t mtu)
    : Node(std::move(name)),
      loop_(loop),
      address_(address),
      mac_(MacAddress::for_nic(address.value())),
      mtu_(mtu) {}

void Host::add_alias(Ipv4Address alias) {
  if (alias == address_) return;
  if (std::find(aliases_.begin(), aliases_.end(), alias) != aliases_.end()) return;
  aliases_.push_back(alias);
}

bool Host::local_address(Ipv4Address addr) const {
  if (addr == address_) return true;
  return std::find(aliases_.begin(), aliases_.end(), addr) != aliases_.end();
}

void Host::udp_bind(std::uint16_t port, UdpHandler handler) {
  udp_ports_[port] = std::move(handler);
}

void Host::udp_unbind(std::uint16_t port) { udp_ports_.erase(port); }

void Host::udp_send(std::uint16_t src_port, Endpoint dst, std::size_t payload_len,
                    ByteFill fill, std::uint8_t ttl) {
  udp_send_from(address_, src_port, dst, payload_len, fill, ttl);
}

void Host::udp_send(std::uint16_t src_port, Endpoint dst,
                    std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  udp_send_from(address_, src_port, dst, payload, ttl);
}

void Host::udp_send_from(Ipv4Address src, std::uint16_t src_port, Endpoint dst,
                         std::size_t payload_len, ByteFill fill, std::uint8_t ttl) {
  send_datagram(make_udp_packet(Endpoint{src, src_port}, dst, payload_len, fill,
                                next_ip_id_++, ttl));
}

void Host::udp_send_from(Ipv4Address src, std::uint16_t src_port, Endpoint dst,
                         std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  send_datagram(make_udp_packet(Endpoint{src, src_port}, dst, payload, next_ip_id_++, ttl));
}

void Host::send_datagram(const Ipv4Packet& datagram) {
  ++stats_.udp_datagrams_sent;
  for (const auto& fragment : fragment_packet(datagram, mtu_)) transmit(fragment);
}

void Host::send_icmp_echo(Ipv4Address dst, std::uint16_t identifier, std::uint16_t sequence,
                          std::size_t payload_bytes, std::uint8_t ttl) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kEchoRequest;
  icmp.identifier = identifier;
  icmp.sequence = sequence;
  transmit(make_icmp_packet(
      address_, dst, icmp, payload_bytes,
      [](std::span<std::uint8_t> out) { std::memset(out.data(), 0xA5, out.size()); },
      next_ip_id_++, ttl));
}

void Host::transmit(const Ipv4Packet& packet) {
  ++stats_.ip_packets_sent;
  if (tap_) tap_(packet, TapDirection::kOutbound, loop_.now());
  if (send_) send_(packet);
}

void Host::handle_packet(const Ipv4Packet& packet, int /*ingress_iface*/) {
  if (!local_address(packet.header.dst)) return;  // not promiscuous for foreign traffic
  if (tap_) tap_(packet, TapDirection::kInbound, loop_.now());
  if (probe_ != nullptr)
    probe_->fold(loop_.now(), packet.header.protocol, packet.header.identification,
                 packet.total_length());

  auto whole = reassembler_.offer(packet, loop_.now());
  reassembler_.expire(loop_.now());
  if (!whole) return;
  deliver_datagram(*whole);
}

void Host::tcp_send(const TcpHeader& segment, Ipv4Address dst, std::size_t payload_len,
                    ByteFill fill, std::uint8_t ttl) {
  transmit(make_tcp_packet(Endpoint{address_, segment.src_port},
                           Endpoint{dst, segment.dst_port}, segment, payload_len, fill,
                           next_ip_id_++, ttl));
}

void Host::tcp_send(const TcpHeader& segment, Ipv4Address dst,
                    std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  transmit(make_tcp_packet(Endpoint{address_, segment.src_port},
                           Endpoint{dst, segment.dst_port}, segment, payload,
                           next_ip_id_++, ttl));
}

void Host::deliver_datagram(const Ipv4Packet& whole) {
  switch (whole.header.protocol) {
    case kIpProtoUdp: {
      ByteReader r(whole.payload);
      auto udp = UdpHeader::decode(r);
      if (!udp) return;
      const std::size_t data_len = udp->length - kUdpHeaderSize;
      auto data = r.bytes(std::min<std::size_t>(data_len, r.remaining()));
      auto it = udp_ports_.find(udp->dst_port);
      if (it == udp_ports_.end()) {
        ++stats_.udp_no_listener;
        return;
      }
      ++stats_.udp_datagrams_received;
      it->second(data, Endpoint{whole.header.src, udp->src_port}, loop_.now());
      break;
    }
    case kIpProtoTcp: {
      if (!tcp_handler_) return;
      ByteReader r(whole.payload);
      auto tcp = TcpHeader::decode(r);
      if (!tcp) return;
      auto data = r.bytes(r.remaining());
      tcp_handler_(*tcp, whole.header.src, data, loop_.now());
      break;
    }
    case kIpProtoIcmp: {
      ByteReader r(whole.payload);
      auto icmp = IcmpHeader::decode(r);
      if (!icmp) return;
      ++stats_.icmp_received;
      if (icmp->type == IcmpType::kEchoRequest) {
        IcmpHeader reply;
        reply.type = IcmpType::kEchoReply;
        reply.identifier = icmp->identifier;
        reply.sequence = icmp->sequence;
        auto echo_payload = r.bytes(r.remaining());
        Ipv4Packet out =
            make_icmp_packet(address_, whole.header.src, reply, echo_payload, next_ip_id_++);
        transmit(out);
        return;
      }
      if (icmp_handler_) {
        auto rest = r.bytes(r.remaining());
        icmp_handler_(*icmp, whole.header, rest, loop_.now());
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace streamlab
