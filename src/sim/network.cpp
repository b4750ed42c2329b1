#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace streamlab {
namespace {

// Address plan: client LAN 10.0.0.0/24, router i loopback 10.1.<i>.1,
// detour router i loopback 10.2.<i>.1, server subnet 192.168.100.0/24.
constexpr Ipv4Address kClientAddr{10, 0, 0, 2};
constexpr Ipv4Address kClientLanPrefix{10, 0, 0, 0};
constexpr Ipv4Address kDetourPrefix{10, 2, 0, 0};
constexpr Ipv4Address kServerSubnetPrefix{192, 168, 100, 0};

// Interface plan: on every router iface 0 faces the client, iface 1 the
// servers; on the branch/rejoin routers iface 2 enters the detour segment.
constexpr int kDetourIface = 2;

}  // namespace

Network::Network(const PathConfig& config) : config_(config), rng_(config.seed) {
  assert(config.hop_count >= 1);
  client_ = std::make_unique<Host>(loop_, "client", kClientAddr);

  for (int i = 0; i < config.hop_count; ++i) {
    routers_.push_back(std::make_unique<Router>("r" + std::to_string(i), router_address(i)));
  }

  // Per-link propagation: spread the one-way total across hop_count+1 links
  // (client->r0, r0->r1, ..., r_{n-1} has the server links added later; the
  // final server link reuses the same per-link share).
  const int link_count = config.hop_count + 1;
  const Duration per_link = Duration(config.one_way_propagation.ns() / link_count);
  const int bottleneck_index = link_count / 2;
  bottleneck_index_ = bottleneck_index;

  auto link_config = [&](int index) {
    LinkConfig lc;
    lc.propagation = per_link;
    lc.queue_limit_bytes = config.queue_limit_bytes;
    if (index == 0) {
      lc.bandwidth = config.access_bandwidth;
    } else if (index == bottleneck_index) {
      lc.bandwidth = config.bottleneck_bandwidth;
      lc.jitter_stddev = config.jitter_stddev;
      lc.loss_probability = config.loss_probability;
    } else {
      lc.bandwidth = config.backbone_bandwidth;
      // A little per-hop noise so interarrival distributions are not
      // perfectly clean even on an idle path.
      lc.jitter_stddev = Duration(config.jitter_stddev.ns() / 4);
    }
    return lc;
  };

  // client <-> r0
  wire(link_config(0), *client_, 0, *routers_[0], 0,
       bottleneck_index == 0 ? "bottleneck" : "access");

  // r_{i-1} <-> r_i
  for (int i = 1; i < config.hop_count; ++i) {
    wire(link_config(i), *routers_[i - 1], 1, *routers_[i], 0,
         i == bottleneck_index ? "bottleneck" : "hop" + std::to_string(i));
  }

  // Routing: toward the client everything in 10.0.0.0/16 plus each upstream
  // router address leaves via iface 0; everything else via iface 1.
  for (int i = 0; i < config.hop_count; ++i) {
    routers_[i]->add_route(kClientLanPrefix, 16, 0);
    // Upstream router loopbacks (traceroute replies traverse back through
    // them only as sources, but ping targets them as destinations).
    for (int j = 0; j < i; ++j) routers_[i]->add_route(router_address(j), 32, 0);
    for (int j = i + 1; j < config.hop_count; ++j) routers_[i]->add_route(router_address(j), 32, 1);
    if (i + 1 < config.hop_count) {
      routers_[i]->add_route(kServerSubnetPrefix, 24, 1);
    }
    // The last router's server routes are added per-server in add_server().
  }

  if (config.detour) build_detour(*config.detour, per_link);
}

void Network::build_detour(const DetourConfig& detour, Duration per_link_propagation) {
  assert(detour.hops >= 1);
  assert(detour.metric > 0);
  assert(detour.span_first >= 1);
  assert(detour.span_first <= detour.span_last);
  // The branch (span_first-1) and rejoin (span_last+1) routers must both
  // exist on the chain, so the span may not include either end router.
  assert(detour.span_last <= config_.hop_count - 2);

  const int branch_index = detour.span_first - 1;
  const int rejoin_index = detour.span_last + 1;
  Router& branch = *routers_[static_cast<std::size_t>(branch_index)];
  Router& rejoin = *routers_[static_cast<std::size_t>(rejoin_index)];

  for (int i = 0; i < detour.hops; ++i) {
    detour_routers_.push_back(
        std::make_unique<Router>("d" + std::to_string(i), detour_router_address(i)));
  }

  // Detour links mirror backbone hops (bandwidth + light jitter): the detour
  // is a viable alternate path, not a degraded one — what changes under
  // reroute is the hop sequence, which is what tracert measures.
  LinkConfig lc;
  lc.bandwidth = config_.backbone_bandwidth;
  lc.propagation = per_link_propagation;
  lc.queue_limit_bytes = config_.queue_limit_bytes;
  lc.jitter_stddev = Duration(config_.jitter_stddev.ns() / 4);

  wire(lc, branch, kDetourIface, *detour_routers_.front(), 0, "detour0");
  for (int i = 1; i < detour.hops; ++i) {
    wire(lc, *detour_routers_[static_cast<std::size_t>(i - 1)], 1,
         *detour_routers_[static_cast<std::size_t>(i)], 0, "detour" + std::to_string(i));
  }
  wire(lc, *detour_routers_.back(), 1, rejoin, kDetourIface,
       "detour" + std::to_string(detour.hops));

  // Detour-segment routing (iface 0 faces the branch, iface 1 the rejoin).
  for (int i = 0; i < detour.hops; ++i) {
    Router& d = *detour_routers_[static_cast<std::size_t>(i)];
    d.add_route(kClientLanPrefix, 16, 0);
    d.add_route(kServerSubnetPrefix, 24, 1);
    // Chain loopbacks: span routers resolve toward the branch, which holds
    // their (withdrawable) /32s — so a probe to a dead span router earns a
    // Destination Unreachable at the branch instead of looping.
    for (int j = 0; j < config_.hop_count; ++j)
      d.add_route(router_address(j), 32, j <= detour.span_last ? 0 : 1);
    for (int j = 0; j < detour.hops; ++j) {
      if (j != i) d.add_route(detour_router_address(j), 32, j < i ? 0 : 1);
    }
  }

  // Chain routers reach the detour loopbacks through the nearer junction.
  for (int i = 0; i < config_.hop_count; ++i) {
    if (i == branch_index || i == rejoin_index) {
      routers_[static_cast<std::size_t>(i)]->add_route(kDetourPrefix, 16, kDetourIface);
    } else {
      routers_[static_cast<std::size_t>(i)]->add_route(kDetourPrefix, 16,
                                                       i < branch_index ? 1 : 0);
    }
  }

  // Backup routes: shadow every boundary primary that crosses the span at
  // detour.metric. They only win once the repair plane withdraws the metric-0
  // primaries (sim/repair.hpp). Span-router /32s get no backup on purpose —
  // a downed span router should answer with unreachable, not a detour loop.
  branch.add_route(kServerSubnetPrefix, 24, kDetourIface, detour.metric);
  for (int j = rejoin_index; j < config_.hop_count; ++j)
    branch.add_route(router_address(j), 32, kDetourIface, detour.metric);
  rejoin.add_route(kClientLanPrefix, 16, kDetourIface, detour.metric);
  for (int j = 0; j <= branch_index; ++j)
    rejoin.add_route(router_address(j), 32, kDetourIface, detour.metric);

  // When the rejoin is the last chain router its detour interface occupies
  // slot 2; server links start above it.
  if (rejoin_index == config_.hop_count - 1) next_server_iface_ = kDetourIface + 1;

  DetourControl control;
  control.span_first = detour.span_first;
  control.span_last = detour.span_last;
  control.branch = &branch;
  control.rejoin = &rejoin;
  control.primaries = span_primaries(detour.span_first, detour.span_last);
  detour_control_ = std::move(control);
}

Network::MultipathEndpoints Network::enable_multipath(Host& server) {
  if (!detour_control_)
    throw std::logic_error("enable_multipath: the path has no detour segment");
  Router& edge = *routers_.back();
  const int server_iface = edge.lookup(server.address());
  if (server_iface < 0)
    throw std::logic_error("enable_multipath: server is not attached to the edge router");

  MultipathEndpoints ep;
  ep.client_alias = Ipv4Address(10, 0, 0, 3);
  ep.server_alias = Ipv4Address(
      192, 168, 100,
      static_cast<std::uint8_t>((server.address().value() & 0xFF) + 100));
  client_->add_alias(ep.client_alias);
  server.add_alias(ep.server_alias);

  // Steering: /32s at metric 0 beat the /16 and /24 prefixes the aliases
  // otherwise ride, so alias traffic forks into the detour at the branch
  // (toward the server) and at the rejoin (back toward the client), and the
  // edge router delivers the server alias on the server's own link.
  detour_control_->branch->add_route(ep.server_alias, 32, kDetourIface);
  detour_control_->rejoin->add_route(ep.client_alias, 32, kDetourIface);
  edge.add_route(ep.server_alias, 32, server_iface);

  multipath_aliases_.push_back(ep.client_alias);
  multipath_aliases_.push_back(ep.server_alias);
  audit_routing();
  return ep;
}

std::vector<std::pair<Router*, Router::RouteId>> Network::span_primaries(int span_first,
                                                                         int span_last) {
  assert(span_first >= 1);
  assert(span_first <= span_last);
  assert(span_last <= config_.hop_count - 2);
  Router& branch = *routers_[static_cast<std::size_t>(span_first - 1)];
  Router& rejoin = *routers_[static_cast<std::size_t>(span_last + 1)];
  std::vector<std::pair<Router*, Router::RouteId>> primaries;
  // Everything the branch forwards into the span (iface 1: the server subnet
  // plus downstream /32s) and everything the rejoin forwards into it from the
  // far side (iface 0: the client prefix plus upstream /32s).
  for (Router::RouteId id : branch.routes_via(1)) primaries.emplace_back(&branch, id);
  for (Router::RouteId id : rejoin.routes_via(0)) primaries.emplace_back(&rejoin, id);
  return primaries;
}

Link& Network::wire(LinkConfig lc, Node& a, int a_iface, Node& b, int b_iface,
                    std::string label) {
  auto link = std::make_unique<Link>(loop_, rng_.fork(), lc, a, a_iface, b, b_iface);
  Link* l = link.get();
  if (auto* router_a = dynamic_cast<Router*>(&a)) {
    router_a->attach_interface(a_iface, [l](const Ipv4Packet& p) { l->send_from_a(p); });
    record_adjacency(*router_a, a_iface, b);
  } else {
    static_cast<Host&>(a).attach_interface([l](const Ipv4Packet& p) { l->send_from_a(p); });
  }
  if (auto* router_b = dynamic_cast<Router*>(&b)) {
    router_b->attach_interface(b_iface, [l](const Ipv4Packet& p) { l->send_from_b(p); });
    record_adjacency(*router_b, b_iface, a);
  } else {
    static_cast<Host&>(b).attach_interface([l](const Ipv4Packet& p) { l->send_from_b(p); });
  }
  if (obs_ != nullptr) link->set_observer(*obs_, label);
  if (auditor_ != nullptr) link->set_audit_label(label);
  links_.push_back(std::move(link));
  link_labels_.push_back(std::move(label));
  return *links_.back();
}

void Network::record_adjacency(const Router& from, int iface, const Node& peer) {
  auto& row = adjacency_[&from];
  if (row.size() <= static_cast<std::size_t>(iface))
    row.resize(static_cast<std::size_t>(iface) + 1, nullptr);
  row[static_cast<std::size_t>(iface)] = &peer;
}

void Network::attach_observer(obs::Obs& obs) {
  obs_ = &obs;
  loop_.set_observer(&obs);
  for (std::size_t i = 0; i < links_.size(); ++i)
    links_[i]->set_observer(obs, link_labels_[i]);
}

void Network::publish_stats(obs::Registry& registry) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const std::string prefix = "link." + link_labels_[i] + ".";
    const Link::DirectionStats& ab = links_[i]->stats_a_to_b();
    const Link::DirectionStats& ba = links_[i]->stats_b_to_a();
    registry.counter(prefix + "delivered").add(ab.packets_delivered + ba.packets_delivered);
    registry.counter(prefix + "drops_queue")
        .add(ab.packets_dropped_queue + ba.packets_dropped_queue);
    registry.counter(prefix + "drops_loss").add(ab.packets_dropped_loss + ba.packets_dropped_loss);
    registry.counter(prefix + "drops_outage")
        .add(ab.packets_dropped_outage + ba.packets_dropped_outage);
    registry.counter(prefix + "drops_burst")
        .add(ab.packets_dropped_burst + ba.packets_dropped_burst);
  }
  for (const auto* routers : {&routers_, &detour_routers_}) {
    for (const auto& router : *routers) {
      const std::string prefix = "router." + router->name() + ".";
      const Router::Stats& s = router->stats();
      registry.counter(prefix + "forwarded").add(s.packets_forwarded);
      registry.counter(prefix + "drops_ttl").add(s.packets_ttl_expired);
      registry.counter(prefix + "drops_no_route").add(s.packets_no_route);
      registry.counter(prefix + "drops_offline").add(s.packets_dropped_offline);
    }
  }
}

void Network::attach_auditor(audit::Auditor& auditor) {
  auditor_ = &auditor;
  loop_.set_auditor(&auditor);
  for (std::size_t i = 0; i < links_.size(); ++i)
    links_[i]->set_audit_label(link_labels_[i]);
}

void Network::audit_finalize(audit::Auditor& auditor) {
  for (const auto& link : links_) link->audit_conservation(auditor, loop_.now());
  audit_routing();
}

void Network::audit_routing() {
  if (auditor_ == nullptr) return;
  std::vector<Ipv4Address> destinations;
  destinations.push_back(client_->address());
  for (const auto& server : servers_) destinations.push_back(server->address());
  for (const Ipv4Address alias : multipath_aliases_) destinations.push_back(alias);
  for (const auto& router : routers_) destinations.push_back(router->address());
  for (const auto& router : detour_routers_) destinations.push_back(router->address());

  std::vector<const Router*> starts = routers();
  for (const auto& router : detour_routers_) starts.push_back(router.get());

  std::vector<const Router*> visited;
  std::uint64_t walks = 0;
  for (const Router* start : starts) {
    for (const Ipv4Address dst : destinations) {
      ++walks;
      visited.clear();
      const Router* current = start;
      while (current != nullptr) {
        // Local delivery, a black-holing offline router, and no-route
        // (Destination Unreachable) all terminate a walk without a loop.
        if (current->address() == dst || current->offline()) break;
        const int iface = current->lookup(dst);
        if (iface < 0) break;
        const auto row = adjacency_.find(current);
        if (row == adjacency_.end() ||
            static_cast<std::size_t>(iface) >= row->second.size())
          break;
        const Node* peer = row->second[static_cast<std::size_t>(iface)];
        const auto* next = dynamic_cast<const Router*>(peer);
        if (next == nullptr) break;  // handed to a host: delivered
        if (std::find(visited.begin(), visited.end(), next) != visited.end()) {
          auditor_->violation(audit::Invariant::kRoutingLoop, loop_.now(),
                              "forwarding loop from " + start->name() + " toward " +
                                  dst.to_string() + " (revisits " + next->name() + ")",
                              static_cast<double>(visited.size()),
                              static_cast<double>(visited.size()));
          break;
        }
        visited.push_back(current);
        current = next;
      }
    }
  }
  auditor_->count_checks(walks);
}

void Network::set_determinism_probe(audit::DeterminismProbe* probe) {
  client_->set_determinism_probe(probe);
}

Ipv4Address Network::router_address(int i) const {
  return Ipv4Address(10, 1, static_cast<std::uint8_t>(i), 1);
}

Ipv4Address Network::detour_router_address(int i) const {
  return Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 1);
}

Host& Network::add_server(const std::string& name) {
  const Ipv4Address addr(192, 168, 100, next_server_host_octet_++);
  auto server = std::make_unique<Host>(loop_, name, addr);
  Router& edge = *routers_.back();
  const int iface = next_server_iface_++;

  LinkConfig lc;
  lc.bandwidth = config_.backbone_bandwidth;
  lc.propagation = Duration(config_.one_way_propagation.ns() / (config_.hop_count + 1));
  lc.queue_limit_bytes = config_.queue_limit_bytes;

  wire(lc, edge, iface, *server, 0, "server." + name);
  edge.add_route(addr, 32, iface);

  servers_.push_back(std::move(server));
  return *servers_.back();
}

std::vector<const Router*> Network::routers() const {
  std::vector<const Router*> out;
  out.reserve(routers_.size());
  for (const auto& r : routers_) out.push_back(r.get());
  return out;
}

std::vector<const Router*> Network::detour_routers() const {
  std::vector<const Router*> out;
  out.reserve(detour_routers_.size());
  for (const auto& r : detour_routers_) out.push_back(r.get());
  return out;
}

}  // namespace streamlab
