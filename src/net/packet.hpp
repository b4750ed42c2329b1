// Wire frames and IPv4 datagrams.
//
// A `Frame` is the byte-exact Ethernet frame a sniffer would capture — the
// 1514-byte frames the paper observes are Frames of a full-MTU IPv4 packet.
// An `Ipv4Datagram` is the network-layer unit before link framing; it is the
// input/output type of the fragmentation engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/buffer.hpp"
#include "net/headers.hpp"
#include "util/expected.hpp"

namespace streamlab {

/// An Ethernet frame as it appears on the wire. The bytes live in a
/// refcounted Buffer so parsed views can share them without copying.
class Frame {
 public:
  Frame() = default;
  explicit Frame(Buffer data) : data_(std::move(data)) {}
  explicit Frame(const std::vector<std::uint8_t>& data)
      : data_(Buffer::copy_of(data)) {}

  const Buffer& buffer() const { return data_; }
  std::span<const std::uint8_t> bytes() const { return data_.bytes(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

 private:
  Buffer data_;
};

/// An IPv4 packet: header plus raw payload bytes. For an unfragmented UDP
/// datagram the payload is UDP header + application data; for a trailing
/// fragment it is a slice (a Buffer view) of the original payload. Copying
/// an Ipv4Packet copies the 20-byte header and bumps the payload refcount —
/// payload bytes are written once at packet creation and never again.
struct Ipv4Packet {
  Ipv4Header header;
  Buffer payload;

  std::size_t total_length() const { return kIpv4HeaderSize + payload.size(); }
};

/// Fully parsed view of a frame. Transport headers are present when the IP
/// packet is the *first* fragment (offset 0); trailing fragments expose only
/// raw payload, exactly as a sniffer sees them.
struct ParsedFrame {
  EthernetHeader eth;
  Ipv4Header ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<IcmpHeader> icmp;
  /// Transport payload (after UDP/TCP/ICMP header) for first fragments, or
  /// the raw IP payload for trailing fragments. When parsing a Frame this is
  /// a view into the frame's own buffer; when parsing a raw span it owns a
  /// copy.
  Buffer payload;
};

/// Builds a UDP/IPv4 datagram (not yet fragmented or framed). The transport
/// segment is one slab block, written once: the UDP header, then `fill`
/// writes the `payload_len` payload bytes in place, then the checksum is
/// computed over the block and patched in.
Ipv4Packet make_udp_packet(Endpoint src, Endpoint dst, std::size_t payload_len,
                           ByteFill fill, std::uint16_t ip_id, std::uint8_t ttl = 64);
Ipv4Packet make_udp_packet(Endpoint src, Endpoint dst, std::span<const std::uint8_t> payload,
                           std::uint16_t ip_id, std::uint8_t ttl = 64);

/// Builds a TCP/IPv4 packet with the given segment fields, in place as above.
Ipv4Packet make_tcp_packet(Endpoint src, Endpoint dst, const TcpHeader& tcp,
                           std::size_t payload_len, ByteFill fill, std::uint16_t ip_id,
                           std::uint8_t ttl = 64);
Ipv4Packet make_tcp_packet(Endpoint src, Endpoint dst, const TcpHeader& tcp,
                           std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                           std::uint8_t ttl = 64);

/// Builds an ICMP/IPv4 packet (echo request/reply, time exceeded, ...), in
/// place as above.
Ipv4Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, const IcmpHeader& icmp,
                            std::size_t payload_len, ByteFill fill, std::uint16_t ip_id,
                            std::uint8_t ttl = 64);
Ipv4Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, const IcmpHeader& icmp,
                            std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                            std::uint8_t ttl = 64);

/// Wraps an IPv4 packet in an Ethernet frame.
Frame frame_ipv4(MacAddress src_mac, MacAddress dst_mac, const Ipv4Packet& packet);

/// Parses a captured frame back into headers + payload (payload copied).
Expected<ParsedFrame> parse_frame(std::span<const std::uint8_t> frame);

/// Zero-copy form: the returned payload is a view into `frame`'s buffer.
Expected<ParsedFrame> parse_frame(const Frame& frame);

}  // namespace streamlab
