// Point-to-point link model.
//
// A Link is a full-duplex pipe between two (node, interface) attachments.
// Each direction has an independent drop-tail byte queue, a serialization
// stage governed by the link bandwidth, and a propagation stage with
// optional jitter and random loss. Wire size accounting includes the
// 14-byte Ethernet framing so a full-MTU IP packet occupies 1514 bytes of
// link time, matching the frame sizes the paper's sniffer records.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/node.hpp"
#include "util/rate.hpp"
#include "util/rng.hpp"

namespace streamlab {

struct LinkConfig {
  BitRate bandwidth = BitRate::mbps(10);        ///< serialization rate
  Duration propagation = Duration::millis(1);   ///< one-way propagation delay
  Duration jitter_stddev = Duration::zero();    ///< per-packet delay noise (>= 0 enforced)
  double loss_probability = 0.0;                ///< independent random loss
  std::size_t queue_limit_bytes = 256 * 1024;   ///< drop-tail threshold per direction
};

/// A transient override of a link's behaviour, applied by the fault layer
/// (sim/faults.hpp) while an impairment episode is active. Fields left at
/// their defaults keep the baseline LinkConfig behaviour.
struct LinkImpairment {
  /// Link flap: every packet reaching the wire is dropped.
  bool outage = false;
  /// Serialization-rate override (congestion epoch / rate renegotiation).
  std::optional<BitRate> bandwidth;
  /// Added one-way propagation delay (route change, bufferbloat episode).
  Duration extra_delay = Duration::zero();
  /// Override of the independent loss probability.
  std::optional<double> loss_probability;
  /// Stateful per-packet loss model (e.g. Gilbert–Elliott burst loss); when
  /// set it replaces the independent-loss draw entirely. The callback is
  /// handed the link's own Rng so runs stay deterministic.
  std::function<bool(Rng&)> loss_model;
};

class Link {
 public:
  struct DirectionStats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped_queue = 0;
    std::uint64_t packets_dropped_loss = 0;
    std::uint64_t packets_dropped_outage = 0;  ///< dropped by a link flap
    std::uint64_t packets_dropped_burst = 0;   ///< dropped by a loss_model
    std::uint64_t bytes_delivered = 0;
  };

  /// Attaches the two ends. `a_iface` is the interface index the packet is
  /// reported on when delivered *to* node a (and symmetrically for b).
  Link(EventLoop& loop, Rng rng, LinkConfig config, Node& a, int a_iface, Node& b,
       int b_iface);

  /// Sends from node a toward node b (direction 0) or b toward a (1).
  void send_from_a(const Ipv4Packet& packet) { send(0, packet); }
  void send_from_b(const Ipv4Packet& packet) { send(1, packet); }

  const DirectionStats& stats_a_to_b() const { return dir_[0].stats; }
  const DirectionStats& stats_b_to_a() const { return dir_[1].stats; }
  const LinkConfig& config() const { return config_; }

  /// Installs (replacing any current) or clears the active impairment.
  /// Packets already serialized or in flight are unaffected; the override
  /// applies from the next loss/delay decision onward.
  void set_impairment(LinkImpairment impairment);
  void clear_impairment() { impairment_.reset(); }
  bool impaired() const { return impairment_.has_value(); }

  /// Starts sampling queue occupancy into `obs`'s trace as
  /// "link.<label>.queue_bytes.ab"/".ba". Typically called for a whole
  /// topology at once by Network::attach_observer(); the link's counts reach
  /// the registry from its DirectionStats (Network::publish_stats).
  void set_observer(obs::Obs& obs, const std::string& label);

  /// Names this link for auditor violation reports (the auditor itself is
  /// reached through the loop). Typically called by Network::attach_auditor.
  void set_audit_label(std::string label) { audit_label_ = std::move(label); }

  /// Trial-end packet-conservation check, one ledger per direction:
  /// packets sent == delivered + dropped (queue/loss/outage/burst) +
  /// still-queued + in-flight. Holds at any instant the loop is between
  /// events, including budget-truncated trials.
  void audit_conservation(audit::Auditor& auditor, SimTime now) const;

 private:
  struct Direction {
    std::deque<Ipv4Packet> queue;
    std::size_t queued_bytes = 0;
    bool transmitting = false;
    SimTime last_delivery;  // FIFO guard: jitter never reorders a direction
    /// Serialized packets whose propagation is pending, oldest first. The
    /// delivery events carry only (this, dir): delivery times never
    /// decrease (the last_delivery clamp) and equal times fire in post
    /// order, so each delivery takes the front packet.
    std::deque<Ipv4Packet> in_flight;
    DirectionStats stats;
  };

  static std::size_t wire_size(const Ipv4Packet& p) {
    return kEthernetHeaderSize + p.total_length();
  }

  void send(int dir, const Ipv4Packet& packet);
  bool drop_on_wire(DirectionStats& stats);
  void start_transmission(int dir);
  void finish_transmission(int dir);
  void deliver(int dir);
  void sample_queue(int dir);

  EventLoop& loop_;
  Rng rng_;
  LinkConfig config_;
  std::optional<LinkImpairment> impairment_;
  Node* peer_[2];      // peer_[0] = b (receiver for dir 0), peer_[1] = a
  int peer_iface_[2];
  Direction dir_[2];
  obs::Obs* obs_ = nullptr;  ///< queue-depth sampling; null when not observed
  std::uint16_t queue_bytes_name_[2] = {0, 0};  ///< per-direction trace series
  std::string audit_label_ = "link";
};

}  // namespace streamlab
