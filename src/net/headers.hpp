// Wire-format codecs for the protocol headers that appear in the study:
// Ethernet II, IPv4 (no options), UDP, TCP and ICMP.
//
// Each header has a view: a pointer to its wire bytes with one accessor per
// field, loaded from its fixed offset, and the header's validity rule. The
// views are the one declaration of every offset and rule; the dissector
// reads frames through them directly. Each decoder checks once that the
// reader holds the whole header, applies the view's rule and copies the
// view's fields into its struct, reporting failures via Expected. Encoders
// compute checksums. The transport headers also have write(), which lays
// the fields out as they are (checksum included) — the packet builders use
// it to write a header in place and patch the checksum once the payload is
// beside it.
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

// The views. A view does not check its length: its accessors and its rule
// may be called only once the caller has checked that the header's whole
// size lies at `p`.

/// Ethernet II: destination MAC, source MAC, ethertype. Any whole header is
/// valid.
struct EthernetView {
  const std::uint8_t* p;
  std::uint16_t ethertype() const { return load_u16be(p + 12); }
};

/// IPv4 without options. Valid with version 4, IHL 5 and a header checksum
/// that verifies.
struct Ipv4View {
  const std::uint8_t* p;
  unsigned version() const { return p[0] >> 4; }
  unsigned ihl() const { return p[0] & 0x0F; }
  std::uint8_t dscp() const { return p[1]; }
  std::uint16_t total_length() const { return load_u16be(p + 2); }
  std::uint16_t identification() const { return load_u16be(p + 4); }
  bool dont_fragment() const { return (p[6] & 0x40) != 0; }
  bool more_fragments() const { return (p[6] & 0x20) != 0; }
  std::uint16_t fragment_offset_units() const { return load_u16be(p + 6) & 0x1FFF; }
  std::uint8_t ttl() const { return p[8]; }
  std::uint8_t protocol() const { return p[9]; }
  std::uint16_t header_checksum() const { return load_u16be(p + 10); }
  std::uint32_t src() const { return load_u32be(p + 12); }
  std::uint32_t dst() const { return load_u32be(p + 16); }
  /// Header plus payload minus the header, 0 when total_length is shorter.
  std::size_t payload_length() const {
    const std::size_t total = total_length();
    return total >= kIpv4HeaderSize ? total - kIpv4HeaderSize : 0;
  }
  /// internet_checksum(header) == 0, unrolled: the RFC 1071 sum of the five
  /// 32-bit words folded to 16 bits is 0xFFFF exactly when the checksum
  /// verifies (the sum is 0 only when every byte is).
  bool checksum_verifies() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kIpv4HeaderSize; i += 4) sum += load_u32be(p + i);
    while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
    return sum == 0xFFFF;
  }
  /// The rule: the error the decoder reports, or nullptr when valid.
  const char* error() const {
    if (version() != 4) return "not IPv4";
    if (ihl() != 5) return "IPv4 options unsupported";
    if (!checksum_verifies()) return "bad IPv4 header checksum";
    return nullptr;
  }
};

/// UDP. Valid when its length covers at least the header.
struct UdpView {
  const std::uint8_t* p;
  std::uint16_t src_port() const { return load_u16be(p); }
  std::uint16_t dst_port() const { return load_u16be(p + 2); }
  std::uint16_t length() const { return load_u16be(p + 4); }
  std::uint16_t checksum() const { return load_u16be(p + 6); }
  const char* error() const { return length() < kUdpHeaderSize ? "bad UDP length" : nullptr; }
};

/// TCP. Valid when the data offset is at least 5 words and the options it
/// implies lie inside the segment.
struct TcpView {
  const std::uint8_t* p;
  std::uint16_t src_port() const { return load_u16be(p); }
  std::uint16_t dst_port() const { return load_u16be(p + 2); }
  std::uint32_t seq() const { return load_u32be(p + 4); }
  std::uint32_t ack() const { return load_u32be(p + 8); }
  unsigned data_offset() const { return p[12] >> 4; }  ///< in 32-bit words
  bool flag_fin() const { return (p[13] & 0x01) != 0; }
  bool flag_syn() const { return (p[13] & 0x02) != 0; }
  bool flag_rst() const { return (p[13] & 0x04) != 0; }
  bool flag_psh() const { return (p[13] & 0x08) != 0; }
  bool flag_ack() const { return (p[13] & 0x10) != 0; }
  std::uint16_t window() const { return load_u16be(p + 14); }
  std::uint16_t checksum() const { return load_u16be(p + 16); }
  // Bytes 18-19: the urgent pointer, unused.
  /// The bytes of options between the fixed header and the payload.
  std::size_t options_length() const { return (data_offset() - 5) * 4; }
  /// The rule, for a segment of `segment_length` bytes from the header on.
  const char* error(std::size_t segment_length) const {
    if (data_offset() < 5) return "bad TCP data offset";
    if (kTcpHeaderSize + options_length() > segment_length) return "truncated TCP options";
    return nullptr;
  }
};

/// ICMP. Any whole header is valid.
struct IcmpView {
  const std::uint8_t* p;
  std::uint8_t type() const { return p[0]; }
  std::uint8_t code() const { return p[1]; }
  std::uint16_t checksum() const { return load_u16be(p + 2); }
  std::uint16_t identifier() const { return load_u16be(p + 4); }
  std::uint16_t sequence() const { return load_u16be(p + 6); }
};

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = kEtherTypeIpv4;

  void write(SpanWriter& w) const;
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
