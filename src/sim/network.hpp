// Topology builder: a client behind an access link, a chain of routers, and
// one or more co-located servers on the far subnet — the measurement setup
// of the paper (client on the WPI campus network, servers 15-25 hops away,
// MediaPlayer and RealPlayer servers on the same remote subnet).
//
// Self-healing extension (DESIGN.md §11): the path can grow a *detour*
// segment — parallel routers bridging around a configurable span of the
// chain — so an alternate route exists when a chain router dies. Primary
// routes carry metric 0, detour routes a higher metric; the repair control
// plane (sim/repair.hpp) withdraws the primaries through a dead span and the
// backup routes take over.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/host.hpp"
#include "sim/link.hpp"
#include "sim/router.hpp"

namespace streamlab {

/// A redundant segment bridging around chain routers
/// [span_first, span_last]: the router *before* the span (the branch) and
/// the router *after* it (the rejoin) are connected through `hops` detour
/// routers, with backup routes at metric `metric` shadowing the metric-0
/// primaries through the span.
struct DetourConfig {
  int span_first = 3;  ///< first bypassed chain router (>= 1)
  int span_last = 4;   ///< last bypassed chain router (<= hop_count - 2)
  int hops = 2;        ///< routers on the detour segment (>= 1)
  int metric = 10;     ///< metric of the backup routes (> 0)
};

struct PathConfig {
  int hop_count = 17;                  ///< routers between client and servers
  BitRate access_bandwidth = BitRate::mbps(10);   ///< client NIC ("PCI 10M base")
  BitRate backbone_bandwidth = BitRate::mbps(100);
  BitRate bottleneck_bandwidth = BitRate::mbps(10);
  Duration one_way_propagation = Duration::millis(20);  ///< summed across links
  Duration jitter_stddev = Duration::micros(300);       ///< bottleneck link noise
  double loss_probability = 0.0;       ///< bottleneck link random loss
  std::size_t queue_limit_bytes = 256 * 1024;
  std::uint64_t seed = 42;
  /// Optional detour segment; nullopt keeps the single static chain.
  std::optional<DetourConfig> detour;
};

/// Owns the event loop and every node/link of one experiment topology.
class Network {
 public:
  /// The repair plane's handle on the detour: which chain routers it
  /// protects and which metric-0 primaries to withdraw so the backup routes
  /// through the detour take over.
  struct DetourControl {
    int span_first = 0;
    int span_last = 0;
    Router* branch = nullptr;  ///< chain router where the detour forks off
    Router* rejoin = nullptr;  ///< chain router where it rejoins
    /// Primary routes through the span: the branch's server-subnet and
    /// span-router /32 routes plus the rejoin's client-prefix and
    /// span-router /32 routes.
    std::vector<std::pair<Router*, Router::RouteId>> primaries;
  };

  explicit Network(const PathConfig& config);

  EventLoop& loop() { return loop_; }
  Host& client() { return *client_; }
  const PathConfig& config() const { return config_; }
  int hop_count() const { return static_cast<int>(routers_.size()); }

  /// Adds a server host on the far subnet (reachable from the client through
  /// every router). Servers added to one network share the same path, which
  /// is the paper's "same subnet, same network path" clip-selection rule.
  Host& add_server(const std::string& name);

  /// Wires one observability context through the whole topology: the event
  /// loop's observer plus each link's queue-depth trace series (links of
  /// servers added later are traced as they are created). Not owned; `obs`
  /// must outlive the network.
  void attach_observer(obs::Obs& obs);

  /// Writes every link's and router's Stats into `registry`, once, when the
  /// run is over: "link.<label>.{delivered,drops_queue,drops_loss,
  /// drops_outage,drops_burst}" summed over both directions (labels
  /// "access"/"bottleneck"/"hop<i>"/"detour<i>"/"server.<name>") and
  /// "router.<name>.{forwarded,drops_ttl,drops_no_route,drops_offline}".
  void publish_stats(obs::Registry& registry) const;

  /// Wires one invariant auditor through the topology: the event loop's
  /// dispatch check plus per-link audit labels (same naming scheme as
  /// attach_observer). Not owned; `auditor` must outlive the network.
  void attach_auditor(audit::Auditor& auditor);

  /// Trial-end audit: packet conservation on every link plus a forwarding-
  /// table loop walk. Call once the loop has stopped (drained or
  /// budget-truncated); events still queued count as in-flight/queued in the
  /// ledger, so truncation is not a violation.
  void audit_finalize(audit::Auditor& auditor);

  /// Forwarding-table loop audit: walks every router's tables toward the
  /// client and every server and reports an audit::Invariant::kRoutingLoop
  /// violation when any walk revisits a router — the condition that turns a
  /// misconfigured repair into a TTL-exceeded storm. No-op without an
  /// attached auditor; also run by audit_finalize() and by the repair plane
  /// after every withdraw/restore.
  void audit_routing();

  /// Installs (or clears, with nullptr) the determinism probe on the client
  /// host — the "client NIC" fold point of the replay digest.
  void set_determinism_probe(audit::DeterminismProbe* probe);

  /// Address of router at position i (0 = nearest the client).
  Ipv4Address router_address(int i) const;
  /// Address of detour router at position i (0 = nearest the branch).
  Ipv4Address detour_router_address(int i) const;

  std::vector<const Router*> routers() const;
  /// Mutable access for fault injection (FaultKind::kRouterDown) and tests.
  Router& router(int i) { return *routers_[static_cast<std::size_t>(i)]; }

  bool has_detour() const { return detour_control_.has_value(); }
  std::vector<const Router*> detour_routers() const;
  int detour_hop_count() const { return static_cast<int>(detour_routers_.size()); }
  Router& detour_router(int i) { return *detour_routers_[static_cast<std::size_t>(i)]; }
  /// nullptr when the path was built without a detour.
  DetourControl* detour_control() {
    return detour_control_ ? &*detour_control_ : nullptr;
  }

  /// Alias pair pinning one multipath subflow onto the detour segment
  /// (DESIGN.md §16): data addressed between these two addresses crosses
  /// the detour in both directions while primary-addressed traffic keeps
  /// the chain.
  struct MultipathEndpoints {
    Ipv4Address client_alias;
    Ipv4Address server_alias;
  };

  /// Registers a client alias and a server alias (for `server`, which must
  /// have been created by add_server()) and installs metric-0 /32 steering
  /// routes: the branch router sends the server alias into the detour, the
  /// rejoin router sends the client alias back through it, and the edge
  /// router delivers the server alias on the server's own interface. The
  /// aliases ride the existing /16 and /24 prefixes everywhere else, so no
  /// other table changes. Requires a detour; throws std::logic_error
  /// without one.
  MultipathEndpoints enable_multipath(Host& server);

  /// The metric-0 primaries that forward across chain span
  /// [span_first, span_last]: everything the boundary routers would send into
  /// it. The repair plane withdraws exactly these when a span router dies —
  /// with a detour the backups take over, without one the boundary answers
  /// probes with Destination Unreachable instead of black-holing.
  std::vector<std::pair<Router*, Router::RouteId>> span_primaries(int span_first,
                                                                  int span_last);

  // --- Link access (for fault injection and stats) ---
  /// All links in creation order: [0] client access link, [1..hop_count-1]
  /// inter-router links, then the detour links (when configured), then one
  /// link per add_server() call.
  std::size_t link_count() const { return links_.size(); }
  Link& link(std::size_t i) { return *links_[i]; }
  /// The client's access link (client <-> first router).
  Link& access_link() { return *links_.front(); }
  /// The bottleneck link the path builder configures with the PathConfig
  /// bandwidth/jitter/loss — the natural target for fault episodes, since
  /// every server's traffic crosses it.
  Link& bottleneck_link() { return *links_[static_cast<std::size_t>(bottleneck_index_)]; }
  int bottleneck_index() const { return bottleneck_index_; }

 private:
  PathConfig config_;
  EventLoop loop_;
  Rng rng_;
  std::unique_ptr<Host> client_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Router>> detour_routers_;
  std::vector<std::unique_ptr<Host>> servers_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::string> link_labels_;  ///< parallel to links_
  std::optional<DetourControl> detour_control_;
  /// Alias addresses registered by enable_multipath(), included in the
  /// routing-loop audit walk's destination set.
  std::vector<Ipv4Address> multipath_aliases_;
  /// Per-router egress adjacency (iface index -> peer node), for the
  /// routing-loop audit walk.
  std::map<const Router*, std::vector<const Node*>> adjacency_;
  int next_server_iface_ = 1;  // iface 0 of the last router faces the client
  std::uint8_t next_server_host_octet_ = 10;
  int bottleneck_index_ = 0;
  obs::Obs* obs_ = nullptr;
  audit::Auditor* auditor_ = nullptr;

  void build_detour(const DetourConfig& detour, Duration per_link_propagation);
  void record_adjacency(const Router& from, int iface, const Node& peer);
  Link& wire(LinkConfig lc, Node& a, int a_iface, Node& b, int b_iface,
             std::string label);
};

}  // namespace streamlab
