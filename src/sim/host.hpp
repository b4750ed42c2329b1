// End host: UDP socket API, sending-side IP fragmentation, receiving-side
// reassembly, ICMP echo, and a promiscuous tap for the sniffer.
//
// The tap observes packets *before* reassembly — exactly what Ethereal saw
// in the paper's setup — while UDP receive handlers observe complete
// datagrams, which is what the player application sees.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/fragmentation.hpp"
#include "net/packet.hpp"
#include "sim/audit.hpp"
#include "sim/event_loop.hpp"
#include "sim/node.hpp"

namespace streamlab {

enum class TapDirection { kInbound, kOutbound };

class Host : public Node {
 public:
  using SendFn = std::function<void(const Ipv4Packet&)>;
  /// payload, remote endpoint, local receive time
  using UdpHandler = std::function<void(std::span<const std::uint8_t>, Endpoint, SimTime)>;
  /// Raw ICMP delivery (echo replies, time-exceeded, unreachable).
  using IcmpHandler =
      std::function<void(const IcmpHeader&, const Ipv4Header&, std::span<const std::uint8_t>,
                         SimTime)>;
  /// TCP segment delivery: parsed header, source address, payload after the
  /// TCP header. The TCP stack (src/tcp) installs this and demuxes by port.
  using TcpHandler = std::function<void(const TcpHeader&, Ipv4Address,
                                        std::span<const std::uint8_t>, SimTime)>;
  using TapFn = std::function<void(const Ipv4Packet&, TapDirection, SimTime)>;

  struct Stats {
    std::uint64_t udp_datagrams_sent = 0;
    std::uint64_t ip_packets_sent = 0;
    std::uint64_t udp_datagrams_received = 0;
    std::uint64_t udp_no_listener = 0;
    std::uint64_t icmp_received = 0;
  };

  Host(EventLoop& loop, std::string name, Ipv4Address address,
       std::size_t mtu = kDefaultMtu);

  Ipv4Address address() const { return address_; }

  /// Adds a secondary local address (a multipath subflow endpoint): packets
  /// whose destination matches an alias are accepted exactly like the
  /// primary address, and udp_send_from() can source datagrams from it so
  /// per-destination routes steer the subflow onto a different path.
  /// Idempotent per address.
  void add_alias(Ipv4Address alias);
  /// True when `addr` is the primary address or a registered alias.
  bool local_address(Ipv4Address addr) const;
  const std::vector<Ipv4Address>& aliases() const { return aliases_; }

  MacAddress mac() const { return mac_; }
  std::size_t mtu() const { return mtu_; }
  EventLoop& loop() { return loop_; }

  void attach_interface(SendFn send) { send_ = std::move(send); }

  /// Binds a UDP port; replaces any existing handler on that port.
  void udp_bind(std::uint16_t port, UdpHandler handler);
  void udp_unbind(std::uint16_t port);

  /// Sends a UDP datagram of `payload_len` bytes, which `fill` writes in
  /// place in the datagram's buffer (see make_udp_packet). Payloads whose
  /// IP datagram exceeds the MTU are fragmented by this host's IP layer
  /// (the MediaPlayer path in the paper); the fragments are views of that
  /// one buffer.
  void udp_send(std::uint16_t src_port, Endpoint dst, std::size_t payload_len, ByteFill fill,
                std::uint8_t ttl = 64);
  /// Sends a copy of `payload`.
  void udp_send(std::uint16_t src_port, Endpoint dst, std::span<const std::uint8_t> payload,
                std::uint8_t ttl = 64);

  /// udp_send with an explicit source address (the primary address or a
  /// registered alias) — how a multipath subflow pins its return path.
  /// Shares the IP id sequence with every other send from this host.
  void udp_send_from(Ipv4Address src, std::uint16_t src_port, Endpoint dst,
                     std::size_t payload_len, ByteFill fill, std::uint8_t ttl = 64);
  void udp_send_from(Ipv4Address src, std::uint16_t src_port, Endpoint dst,
                     std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);

  /// Sends an ICMP echo request (for ping / UDP-less traceroute probing).
  void send_icmp_echo(Ipv4Address dst, std::uint16_t identifier, std::uint16_t sequence,
                      std::size_t payload_bytes = 32, std::uint8_t ttl = 64);

  void set_icmp_handler(IcmpHandler handler) { icmp_handler_ = std::move(handler); }
  void set_tcp_handler(TcpHandler handler) { tcp_handler_ = std::move(handler); }

  /// Sends a raw TCP segment (the TCP stack builds headers; the host owns
  /// IP id assignment and framing) whose `payload_len` payload bytes `fill`
  /// writes in place, as for udp_send.
  void tcp_send(const TcpHeader& segment, Ipv4Address dst, std::size_t payload_len,
                ByteFill fill, std::uint8_t ttl = 64);
  void tcp_send(const TcpHeader& segment, Ipv4Address dst,
                std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);
  /// Installs the sniffer tap (pass nullptr-equivalent {} to remove).
  void set_tap(TapFn tap) { tap_ = std::move(tap); }

  /// Installs (or clears, with nullptr) the determinism probe: every IP
  /// packet this NIC accepts is folded into the replay digest as
  /// (sim-time, IP protocol, IP id, total length), pre-reassembly — the
  /// same vantage point as the paper's sniffer. Not owned.
  void set_determinism_probe(audit::DeterminismProbe* probe) { probe_ = probe; }

  void handle_packet(const Ipv4Packet& packet, int ingress_iface) override;

  const Stats& stats() const { return stats_; }
  const Reassembler::Stats& reassembly_stats() const { return reassembler_.stats(); }

 private:
  /// Fragments a UDP datagram to the MTU and transmits the pieces.
  void send_datagram(const Ipv4Packet& datagram);
  void transmit(const Ipv4Packet& packet);
  void deliver_datagram(const Ipv4Packet& whole);

  EventLoop& loop_;
  Ipv4Address address_;
  std::vector<Ipv4Address> aliases_;
  MacAddress mac_;
  std::size_t mtu_;
  SendFn send_;
  std::map<std::uint16_t, UdpHandler> udp_ports_;
  IcmpHandler icmp_handler_;
  TcpHandler tcp_handler_;
  TapFn tap_;
  audit::DeterminismProbe* probe_ = nullptr;
  Reassembler reassembler_;
  std::uint16_t next_ip_id_ = 1;
  Stats stats_;
};

}  // namespace streamlab
