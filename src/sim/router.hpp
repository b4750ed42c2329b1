// IPv4 router node: longest-prefix-match forwarding with per-route metrics,
// TTL decrement, and ICMP Time Exceeded generation — the mechanism tracert
// relies on to enumerate the hops the paper plots in Figure 2.
//
// Self-healing support (DESIGN.md §11): routes carry a metric so a detour
// segment can install backup routes that only win once the primary is
// withdrawn; add_route() returns a RouteId the control plane (sim/repair.hpp)
// uses to withdraw/restore primaries deterministically. A router can also be
// taken fully offline (FaultKind::kRouterDown): an offline router forwards
// nothing and answers nothing — the hard node failure the repair plane and
// the client's failover machinery exist to survive.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/node.hpp"

namespace streamlab {

class Router : public Node {
 public:
  using SendFn = std::function<void(const Ipv4Packet&)>;
  /// Stable handle to one installed route (index in insertion order).
  using RouteId = std::size_t;
  /// Hardware liveness signal: invoked on every offline<->online transition
  /// with the new state. The repair control plane subscribes to this — it is
  /// the sim equivalent of a neighbor's hello timer expiring.
  using HealthListener = std::function<void(bool online)>;

  struct Stats {
    std::uint64_t packets_forwarded = 0;
    std::uint64_t packets_ttl_expired = 0;
    std::uint64_t packets_no_route = 0;
    std::uint64_t packets_delivered_local = 0;
    std::uint64_t packets_dropped_offline = 0;  ///< swallowed while offline
    std::uint64_t icmp_errors_sent = 0;
    /// ICMP errors not generated because RFC 1122 §3.2.2 forbids them
    /// (offending packet was itself an ICMP error, or a non-first fragment).
    std::uint64_t icmp_errors_suppressed = 0;
  };

  /// `address` is the router's own address, used as the source of ICMP
  /// errors and as a ping target.
  Router(std::string name, Ipv4Address address) : Node(std::move(name)), address_(address) {}

  Ipv4Address address() const { return address_; }

  /// Registers interface `iface`'s transmit function (called by topology
  /// builders when wiring links).
  void attach_interface(int iface, SendFn send);

  /// Adds a route: destinations matching prefix/len leave via `iface`.
  /// Longer prefixes win; among equal prefix lengths the lowest metric wins;
  /// insertion order breaks remaining ties. Returns a stable id usable with
  /// withdraw_route()/restore_route().
  RouteId add_route(Ipv4Address prefix, int prefix_len, int iface, int metric = 0);
  /// Default route (prefix length 0).
  RouteId add_default_route(int iface, int metric = 0) {
    return add_route(Ipv4Address(0), 0, iface, metric);
  }

  /// Withdraws (restores) one route; a withdrawn route is skipped by lookup
  /// so an equal-prefix higher-metric backup takes over. Idempotent.
  void withdraw_route(RouteId id);
  void restore_route(RouteId id);
  bool route_withdrawn(RouteId id) const;
  std::size_t route_count() const { return routes_.size(); }
  /// Ids of every route (withdrawn or not) whose egress is `iface`, in
  /// insertion order — how the repair plane enumerates a span boundary's
  /// primaries (Network::span_primaries).
  std::vector<RouteId> routes_via(int iface) const;

  /// Takes the router fully offline (or back online): while offline every
  /// received packet is swallowed — no forwarding, no local delivery, no
  /// ICMP of any kind — and the registered health listener is notified of
  /// each transition. Idempotent per state.
  void set_offline(bool offline);
  bool offline() const { return offline_; }
  void set_health_listener(HealthListener listener) { health_ = std::move(listener); }

  /// Route lookup as forwarding would resolve it: egress interface for
  /// `dst`, or -1 when no live route matches. Exposed for the routing-loop
  /// audit walk (Network::audit_routing).
  int lookup(Ipv4Address dst) const;

  void handle_packet(const Ipv4Packet& packet, int ingress_iface) override;

  const Stats& stats() const { return stats_; }

 private:
  struct Route {
    std::uint32_t prefix;
    std::uint32_t mask;
    int prefix_len;
    int metric;
    int iface;
    bool withdrawn = false;
  };

  void resort_lookup_order();
  void send_icmp_error(const Ipv4Packet& offending, IcmpType type, std::uint8_t code);

  Ipv4Address address_;
  std::vector<SendFn> interfaces_;
  std::vector<Route> routes_;           ///< insertion order; RouteId indexes this
  std::vector<std::size_t> lookup_order_;  ///< route ids, best-match-first
  Stats stats_;
  bool offline_ = false;
  HealthListener health_;
  std::uint16_t next_ip_id_ = 1;
};

}  // namespace streamlab
