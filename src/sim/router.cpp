#include "sim/router.hpp"

#include <algorithm>

namespace streamlab {

void Router::set_observer(obs::Obs& obs, const std::string& label) {
  obs_ = std::make_unique<ObsState>();
  const std::string prefix = "router." + label + ".";
  obs_->forwarded = obs.registry().counter(prefix + "forwarded");
  obs_->ttl_expired = obs.registry().counter(prefix + "drops_ttl");
  obs_->no_route = obs.registry().counter(prefix + "drops_no_route");
  obs_->offline_drops = obs.registry().counter(prefix + "drops_offline");
}

void Router::attach_interface(int iface, SendFn send) {
  if (static_cast<std::size_t>(iface) >= interfaces_.size())
    interfaces_.resize(static_cast<std::size_t>(iface) + 1);
  interfaces_[static_cast<std::size_t>(iface)] = std::move(send);
}

Router::RouteId Router::add_route(Ipv4Address prefix, int prefix_len, int iface,
                                  int metric) {
  const std::uint32_t mask =
      prefix_len == 0 ? 0u : ~0u << (32 - prefix_len);
  const RouteId id = routes_.size();
  routes_.push_back(Route{prefix.value() & mask, mask, prefix_len, metric, iface});
  lookup_order_.push_back(id);
  resort_lookup_order();
  return id;
}

void Router::resort_lookup_order() {
  // Best match first: longest prefix, then lowest metric, then insertion
  // order (stable_sort keeps ids ascending within equal keys).
  std::stable_sort(lookup_order_.begin(), lookup_order_.end(),
                   [this](RouteId a, RouteId b) {
                     const Route& ra = routes_[a];
                     const Route& rb = routes_[b];
                     if (ra.prefix_len != rb.prefix_len)
                       return ra.prefix_len > rb.prefix_len;
                     return ra.metric < rb.metric;
                   });
}

void Router::withdraw_route(RouteId id) {
  if (id < routes_.size()) routes_[id].withdrawn = true;
}

void Router::restore_route(RouteId id) {
  if (id < routes_.size()) routes_[id].withdrawn = false;
}

bool Router::route_withdrawn(RouteId id) const {
  return id < routes_.size() && routes_[id].withdrawn;
}

std::vector<Router::RouteId> Router::routes_via(int iface) const {
  std::vector<RouteId> out;
  for (RouteId id = 0; id < routes_.size(); ++id) {
    if (routes_[id].iface == iface) out.push_back(id);
  }
  return out;
}

void Router::set_offline(bool offline) {
  if (offline_ == offline) return;
  offline_ = offline;
  if (health_) health_(!offline_);
}

int Router::lookup(Ipv4Address dst) const {
  for (RouteId id : lookup_order_) {
    const Route& r = routes_[id];
    if (r.withdrawn) continue;
    if ((dst.value() & r.mask) == r.prefix) return r.iface;
  }
  return -1;
}

void Router::handle_packet(const Ipv4Packet& packet, int /*ingress_iface*/) {
  // A downed router is a black hole: no forwarding, no local delivery, no
  // ICMP — exactly the silence a hello-timeout detector must turn into a
  // withdraw (sim/repair.hpp) and a client into a failover.
  if (offline_) {
    ++stats_.packets_dropped_offline;
    if (obs_) obs_->offline_drops.add();
    return;
  }

  // Addressed to the router itself: answer pings.
  if (packet.header.dst == address_) {
    ++stats_.packets_delivered_local;
    if (packet.header.protocol == kIpProtoIcmp) {
      ByteReader r(packet.payload);
      auto icmp = IcmpHeader::decode(r);
      if (icmp && icmp->type == IcmpType::kEchoRequest) {
        IcmpHeader reply;
        reply.type = IcmpType::kEchoReply;
        reply.identifier = icmp->identifier;
        reply.sequence = icmp->sequence;
        const auto echo_payload = r.bytes(r.remaining());
        Ipv4Packet out = make_icmp_packet(address_, packet.header.src, reply,
                                          echo_payload, next_ip_id_++);
        const int iface = lookup(packet.header.src);
        if (iface >= 0 && interfaces_[static_cast<std::size_t>(iface)])
          interfaces_[static_cast<std::size_t>(iface)](out);
      }
    }
    return;
  }

  if (packet.header.ttl <= 1) {
    ++stats_.packets_ttl_expired;
    if (obs_) obs_->ttl_expired.add();
    send_icmp_error(packet, IcmpType::kTimeExceeded, 0);
    return;
  }

  const int iface = lookup(packet.header.dst);
  if (iface < 0 || static_cast<std::size_t>(iface) >= interfaces_.size() ||
      !interfaces_[static_cast<std::size_t>(iface)]) {
    ++stats_.packets_no_route;
    if (obs_) obs_->no_route.add();
    send_icmp_error(packet, IcmpType::kDestinationUnreachable, 0);
    return;
  }

  Ipv4Packet forwarded = packet;
  forwarded.header.ttl = static_cast<std::uint8_t>(packet.header.ttl - 1);
  ++stats_.packets_forwarded;
  if (obs_) obs_->forwarded.add();
  interfaces_[static_cast<std::size_t>(iface)](forwarded);
}

void Router::send_icmp_error(const Ipv4Packet& offending, IcmpType type, std::uint8_t code) {
  // RFC 1122 §3.2.2: an ICMP error message must never be generated in
  // response to an ICMP error message, or to a non-first fragment. Without
  // this guard a dead span produces unreachable storms that ping-pong
  // between routers whose routes toward each other's error sources are
  // withdrawn.
  if (offending.header.is_trailing_fragment()) {
    ++stats_.icmp_errors_suppressed;
    return;
  }
  if (offending.header.protocol == kIpProtoIcmp) {
    ByteReader probe(offending.payload);
    const auto icmp = IcmpHeader::decode(probe);
    const bool is_informational =
        icmp && (icmp->type == IcmpType::kEchoRequest || icmp->type == IcmpType::kEchoReply);
    if (!is_informational) {  // undecodable ICMP is treated as an error message
      ++stats_.icmp_errors_suppressed;
      return;
    }
  }

  // RFC 792: the error carries the offending IP header + first 8 payload
  // bytes so the sender can match it to the originating probe.
  ByteWriter quoted(kIpv4HeaderSize + 8);
  offending.header.encode(quoted);
  const std::size_t quote = std::min<std::size_t>(8, offending.payload.size());
  quoted.bytes(offending.payload.bytes().subspan(0, quote));

  IcmpHeader icmp;
  icmp.type = type;
  icmp.code = code;
  Ipv4Packet out =
      make_icmp_packet(address_, offending.header.src, icmp, quoted.view(), next_ip_id_++);
  const int iface = lookup(offending.header.src);
  if (iface >= 0 && static_cast<std::size_t>(iface) < interfaces_.size() &&
      interfaces_[static_cast<std::size_t>(iface)]) {
    ++stats_.icmp_errors_sent;
    interfaces_[static_cast<std::size_t>(iface)](out);
  }
}

}  // namespace streamlab
