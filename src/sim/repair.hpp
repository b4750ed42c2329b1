// Deterministic route repair: the simulator's control plane.
//
// A real path heals because routing protocols notice a dead neighbor (hello
// timeout), withdraw the routes through it, and let a higher-metric
// alternative take over — then converge back once the neighbor returns. This
// module is that machinery reduced to its deterministic core: a RouteRepair
// protects a span of chain routers; when any of them goes offline
// (Router::HealthListener, the sim's hello timer) it waits a configurable
// detection delay, withdraws the span's boundary primaries
// (Network::span_primaries), and — when the topology has a detour — the
// metric-shadowed backups take over. When the whole span is back online it
// waits out a hold-down and restores the primaries. Every transition is a
// plain event on the sim loop, so repaired runs replay bit-for-bit under the
// DeterminismProbe, and every transition re-runs the forwarding-loop audit
// (Network::audit_routing).
//
// Without a detour the same withdraw turns a silent black hole into fast
// failure: the boundary routers answer probes with Destination Unreachable,
// which is the signal the client's mirror failover consumes
// (players/client.hpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace streamlab {

struct RouteRepairConfig {
  /// Delay between a router going dark and the withdraw taking effect — the
  /// sim analogue of a hello/dead interval.
  Duration detection_delay = Duration::millis(300);
  /// Delay between the whole span returning and the primaries being
  /// restored, so a flapping router cannot make the tables flap with it.
  Duration hold_down = Duration::millis(700);
};

/// Event-driven withdraw/restore of the primaries crossing protected spans.
/// Construct after the Network (and its detour) is built; protects the
/// detour span automatically when one exists, or any span handed to
/// protect(). Must outlive the run (health listeners point into it). With an
/// observer on the network's loop, each rerouted interval is a span on its
/// "repair" trace track.
class RouteRepair {
 public:
  struct Stats {
    std::uint64_t reroutes = 0;  ///< withdraw transitions committed
    std::uint64_t restores = 0;  ///< restore transitions committed
  };

  explicit RouteRepair(Network& network, RouteRepairConfig config = {});
  RouteRepair(const RouteRepair&) = delete;
  RouteRepair& operator=(const RouteRepair&) = delete;

  /// Protects chain routers [span_first, span_last] (bounds as in
  /// Network::span_primaries). Called by the constructor for the detour span;
  /// call again to protect additional disjoint spans.
  void protect(int span_first, int span_last);

  /// True while any protected span currently has its primaries withdrawn.
  bool rerouted() const;

  const Stats& stats() const { return stats_; }

  /// Ends any reroute trace span still open at the trial horizon so
  /// truncated trials export well-formed traces. Routing state is left
  /// as-is. Idempotent.
  void finish();

 private:
  struct Span {
    int first = 0;
    int last = 0;
    std::vector<std::pair<Router*, Router::RouteId>> primaries;
    int down_count = 0;      ///< protected routers currently offline
    bool withdrawn = false;  ///< primaries currently withdrawn
    std::uint64_t trace_span = 0;
  };

  void on_health(std::size_t span_index, bool online);
  void withdraw(Span& span);
  void restore(Span& span);
  /// Closes `span`'s open "reroute" trace span, if any.
  void end_trace_span(Span& span);

  Network& network_;
  RouteRepairConfig config_;
  /// deque-like stability not needed: spans are appended only via protect()
  /// before the run; health listeners capture indices, not pointers.
  std::vector<Span> spans_;
  Stats stats_;
};

}  // namespace streamlab
