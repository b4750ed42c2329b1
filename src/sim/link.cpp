#include "sim/link.hpp"

#include <algorithm>

namespace streamlab {

Link::Link(EventLoop& loop, Rng rng, LinkConfig config, Node& a, int a_iface, Node& b,
           int b_iface)
    : loop_(loop), rng_(std::move(rng)), config_(config) {
  peer_[0] = &b;
  peer_iface_[0] = b_iface;
  peer_[1] = &a;
  peer_iface_[1] = a_iface;
}

void Link::set_observer(obs::Obs& obs, const std::string& label) {
  obs_ = &obs;
  const std::string prefix = "link." + label + ".";
  queue_bytes_name_[0] = obs.tracer().intern(prefix + "queue_bytes.ab");
  queue_bytes_name_[1] = obs.tracer().intern(prefix + "queue_bytes.ba");
}

void Link::sample_queue(int dir) {
  obs_->tracer().sample(queue_bytes_name_[dir], loop_.now(),
                        static_cast<double>(dir_[dir].queued_bytes));
}

void Link::send(int dir, const Ipv4Packet& packet) {
  Direction& d = dir_[dir];
  ++d.stats.packets_sent;
  const std::size_t size = wire_size(packet);
  if (d.queued_bytes + size > config_.queue_limit_bytes) {
    ++d.stats.packets_dropped_queue;
    return;
  }
  d.queue.push_back(packet);
  d.queued_bytes += size;
  if (audit::Auditor* a = loop_.auditor()) {
    a->on_link_enqueue(d.queued_bytes, config_.queue_limit_bytes, loop_.now(),
                       audit_label_.c_str());
    if constexpr (audit::kFullAudit) {
      // Full audit recomputes the byte ledger from scratch on every enqueue:
      // the incremental queued_bytes must equal the sum over queued packets.
      std::size_t total = 0;
      for (const Ipv4Packet& q : d.queue) total += wire_size(q);
      if (total != d.queued_bytes)
        a->violation(audit::Invariant::kQueueBounds, loop_.now(),
                     audit_label_ + " queued_bytes out of sync with queue contents",
                     static_cast<double>(d.queued_bytes), static_cast<double>(total));
    }
  }
  if (obs_) sample_queue(dir);
  if (!d.transmitting) start_transmission(dir);
}

void Link::set_impairment(LinkImpairment impairment) {
  impairment_ = std::move(impairment);
}

void Link::start_transmission(int dir) {
  Direction& d = dir_[dir];
  if (d.queue.empty()) {
    d.transmitting = false;
    return;
  }
  d.transmitting = true;
  const BitRate bandwidth = impairment_ && impairment_->bandwidth
                                ? *impairment_->bandwidth
                                : config_.bandwidth;
  const Duration tx = bandwidth.transmission_time(wire_size(d.queue.front()));
  loop_.post_in(tx, [this, dir] { finish_transmission(dir); },
                    obs::EventCategory::kLink);
}

bool Link::drop_on_wire(DirectionStats& stats) {
  if (impairment_) {
    if (impairment_->outage) {
      ++stats.packets_dropped_outage;
      return true;
    }
    if (impairment_->loss_model) {
      if (impairment_->loss_model(rng_)) {
        ++stats.packets_dropped_burst;
        return true;
      }
      return false;
    }
  }
  const double p = impairment_ && impairment_->loss_probability
                       ? *impairment_->loss_probability
                       : config_.loss_probability;
  if (p > 0.0 && rng_.chance(p)) {
    ++stats.packets_dropped_loss;
    return true;
  }
  return false;
}

void Link::finish_transmission(int dir) {
  Direction& d = dir_[dir];
  Ipv4Packet packet = std::move(d.queue.front());
  d.queue.pop_front();
  d.queued_bytes -= wire_size(packet);
  if (obs_) sample_queue(dir);

  if (drop_on_wire(d.stats)) {
    // fall through to the next queued packet
  } else {
    Duration delay = config_.propagation;
    if (impairment_) delay += impairment_->extra_delay;
    if (config_.jitter_stddev > Duration::zero()) {
      const double noise = rng_.normal(0.0, config_.jitter_stddev.to_seconds());
      delay += Duration::from_seconds(std::max(0.0, noise));
    }
    // A physical pipe cannot reorder: clamp delivery to after the previous
    // packet in this direction.
    SimTime deliver_at = loop_.now() + delay;
    if (deliver_at < d.last_delivery) deliver_at = d.last_delivery;
    d.last_delivery = deliver_at;
    d.in_flight.push_back(std::move(packet));
    loop_.post_at(deliver_at, [this, dir] { deliver(dir); }, obs::EventCategory::kLink);
  }
  start_transmission(dir);
}

void Link::deliver(int dir) {
  Direction& d = dir_[dir];
  const Ipv4Packet packet = std::move(d.in_flight.front());
  d.in_flight.pop_front();
  ++d.stats.packets_delivered;
  d.stats.bytes_delivered += wire_size(packet);
  if (audit::Auditor* a = loop_.auditor())
    a->on_delivery_ttl(packet.header.ttl, loop_.now(), audit_label_.c_str());
  peer_[dir]->handle_packet(packet, peer_iface_[dir]);
}

void Link::audit_conservation(audit::Auditor& auditor, SimTime now) const {
  static const char* const kDirName[2] = {".ab", ".ba"};
  for (int dir = 0; dir < 2; ++dir) {
    const Direction& d = dir_[dir];
    const DirectionStats& s = d.stats;
    const std::uint64_t dropped = s.packets_dropped_queue + s.packets_dropped_loss +
                                  s.packets_dropped_outage + s.packets_dropped_burst;
    auditor.check_conservation(audit_label_ + kDirName[dir], s.packets_sent,
                               s.packets_delivered, dropped, d.queue.size(),
                               d.in_flight.size(), now);
  }
}

}  // namespace streamlab
