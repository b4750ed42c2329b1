// IPv4 fragmentation and reassembly.
//
// This is the mechanism behind the paper's central MediaPlayer observation:
// WM servers hand the OS application frames larger than the 1500-byte MTU,
// the sending host's IP layer fragments them, and the sniffer sees groups of
// 1514-byte wire frames followed by one short tail fragment (Figures 4-5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "util/interval_set.hpp"
#include "util/time.hpp"

namespace streamlab {

/// Splits a datagram into MTU-sized fragments, RFC 791 style. Returns the
/// packet unchanged (single element) when it already fits. Fragment payload
/// sizes are the largest multiple of 8 that fits, so a 1500-byte MTU yields
/// 1480-byte fragment payloads — 1514-byte frames on the wire.
/// Returns an empty vector if the packet has DF set and does not fit.
std::vector<Ipv4Packet> fragment_packet(const Ipv4Packet& packet, std::size_t mtu);

/// Reassembles fragmented datagrams at the receiving host. Holds partial
/// datagrams keyed by (src, dst, protocol, identification) and evicts
/// partials that exceed the reassembly timeout — each eviction models the
/// "loss of a single fragment discards the whole application frame"
/// goodput hazard the paper flags (Section 3.C).
class Reassembler {
 public:
  struct Stats {
    std::uint64_t datagrams_delivered = 0;   ///< complete datagrams handed up
    std::uint64_t fragments_received = 0;    ///< fragment packets seen
    std::uint64_t unfragmented_received = 0; ///< whole datagrams passed through
    std::uint64_t datagrams_expired = 0;     ///< partials dropped on timeout
    std::uint64_t fragments_wasted = 0;      ///< fragment packets in expired partials
  };

  explicit Reassembler(Duration timeout = Duration::seconds(30)) : timeout_(timeout) {}

  /// Offers a received packet; returns the complete datagram when this
  /// packet finishes one (or immediately for unfragmented packets).
  std::optional<Ipv4Packet> offer(const Ipv4Packet& packet, SimTime now);

  /// Drops partial datagrams older than the timeout.
  void expire(SimTime now);

  const Stats& stats() const { return stats_; }
  std::size_t pending() const { return partial_.size(); }

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t protocol;
    std::uint16_t id;
    auto operator<=>(const Key&) const = default;
  };
  /// A datagram still missing bytes. Its fragments are kept as views, in
  /// arrival order, and copied once into the datagram's block when the
  /// coverage is complete; replaying them in arrival order makes the later
  /// arrival win wherever fragments overlap.
  struct Partial {
    struct Piece {
      std::size_t offset;
      Buffer bytes;
    };
    std::vector<Piece> pieces;
    IntervalSet coverage;
    std::size_t extent = 0;  ///< furthest byte any fragment reached
    std::optional<std::size_t> total_size;
    Ipv4Header first_header;
    bool have_first = false;
    SimTime first_seen;
    std::uint64_t fragment_count = 0;
  };

  Duration timeout_;
  std::map<Key, Partial> partial_;
  Stats stats_;
};

}  // namespace streamlab
