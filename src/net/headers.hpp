// Wire-format codecs for the protocol headers that appear in the study:
// Ethernet II, IPv4 (no options), UDP, TCP and ICMP. Encoders compute
// checksums; decoders validate lengths and report failures via Expected.
// Each decoder checks the reader holds the whole header once, then loads
// every field from its fixed offset. The transport headers also have
// write(), which lays the fields out as they are (checksum included) — the
// packet builders use it to write a header in place and patch the checksum
// once the payload is beside it.
#pragma once

#include <cstdint>
#include <span>

#include "net/address.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace streamlab {

// Protocol numbers / ethertypes used across the library.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

inline constexpr std::size_t kEthernetHeaderSize = 14;
inline constexpr std::size_t kIpv4HeaderSize = 20;
inline constexpr std::size_t kUdpHeaderSize = 8;
inline constexpr std::size_t kTcpHeaderSize = 20;
inline constexpr std::size_t kIcmpHeaderSize = 8;

/// The Ethernet MTU of the experiment client ("1500 bytes, the Windows
/// default"), giving the 1514-byte wire frames the paper observes.
inline constexpr std::size_t kDefaultMtu = 1500;

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = kEtherTypeIpv4;

  void write(SpanWriter& w) const;
  static Expected<EthernetHeader> decode(ByteReader& r);
};

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  ///< header + payload, bytes
  std::uint16_t identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset_units = 0;  ///< in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint16_t header_checksum = 0;  ///< filled by encode, verified by decode
  Ipv4Address src;
  Ipv4Address dst;

  /// Byte offset of this fragment's payload within the original datagram.
  std::size_t fragment_offset_bytes() const {
    return static_cast<std::size_t>(fragment_offset_units) * 8;
  }
  /// True when this packet is any fragment other than a complete datagram —
  /// the quantity Figure 5 of the paper counts. The paper counts the
  /// *trailing* fragments (offset > 0) as "IP fragments" and the first
  /// packet of a group as the UDP packet, which is the convention
  /// `is_trailing_fragment` captures.
  bool is_fragment() const { return more_fragments || fragment_offset_units != 0; }
  bool is_trailing_fragment() const { return fragment_offset_units != 0; }
  std::size_t payload_length() const {
    return total_length >= kIpv4HeaderSize ? total_length - kIpv4HeaderSize : 0;
  }

  /// Encodes with a freshly computed header checksum.
  void encode(ByteWriter& w) const;
  void write(SpanWriter& w) const;  ///< as encode(), in place
  /// Decodes and verifies the checksum; rejects IHL != 5 (options unused in
  /// the study) and version != 4.
  static Expected<Ipv4Header> decode(ByteReader& r);
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  ///< header + payload
  std::uint16_t checksum = 0;

  /// Encodes with the checksum computed over the pseudo-header and payload.
  void encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
              std::span<const std::uint8_t> payload) const;
  void write(SpanWriter& w) const;
  static Expected<UdpHeader> decode(ByteReader& r);
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool flag_syn = false;
  bool flag_ack = false;
  bool flag_fin = false;
  bool flag_rst = false;
  bool flag_psh = false;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;

  void encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
              std::span<const std::uint8_t> payload) const;
  void write(SpanWriter& w) const;
  static Expected<TcpHeader> decode(ByteReader& r);
};

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestinationUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

struct IcmpHeader {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint16_t identifier = 0;  ///< echo id, or unused
  std::uint16_t sequence = 0;    ///< echo sequence, or unused

  void encode(ByteWriter& w, std::span<const std::uint8_t> payload) const;
  void write(SpanWriter& w) const;
  static Expected<IcmpHeader> decode(ByteReader& r);
};

}  // namespace streamlab
