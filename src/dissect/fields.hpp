// The field registry: every field a dissected packet can carry, declared once
// with its Wireshark name and how its value is displayed, plus the protocol
// layer names. A dissected packet stores one number per field in a fixed
// slot; the filter compiler resolves names to ids here, once per filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace streamlab {

/// How a field's number is shown: in decimal, as a dotted quad, or as a MAC
/// address. A MAC field keeps its 48 bits in its slot for display, but its
/// number (what filters compare) is 0.
enum class FieldDisplay : std::uint8_t { kDecimal, kIpv4, kMac };

// (id, Wireshark name, display), grouped by layer in dissection order.
#define STREAMLAB_DISSECT_FIELDS(X)                \
  X(kFrameLen, "frame.len", kDecimal)              \
  X(kFrameCapLen, "frame.cap_len", kDecimal)       \
  X(kFrameTimeNs, "frame.time_ns", kDecimal)       \
  X(kEthSrc, "eth.src", kMac)                      \
  X(kEthDst, "eth.dst", kMac)                      \
  X(kEthType, "eth.type", kDecimal)                \
  X(kIpLen, "ip.len", kDecimal)                    \
  X(kIpId, "ip.id", kDecimal)                      \
  X(kIpFlagsDf, "ip.flags.df", kDecimal)           \
  X(kIpFlagsMf, "ip.flags.mf", kDecimal)           \
  X(kIpFragOffset, "ip.frag_offset", kDecimal)     \
  X(kIpFragment, "ip.fragment", kDecimal)          \
  X(kIpTtl, "ip.ttl", kDecimal)                    \
  X(kIpProto, "ip.proto", kDecimal)                \
  X(kIpSrc, "ip.src", kIpv4)                       \
  X(kIpDst, "ip.dst", kIpv4)                       \
  X(kIpPayloadLen, "ip.payload_len", kDecimal)     \
  X(kUdpSrcPort, "udp.srcport", kDecimal)          \
  X(kUdpDstPort, "udp.dstport", kDecimal)          \
  X(kUdpLength, "udp.length", kDecimal)            \
  X(kUdpChecksum, "udp.checksum", kDecimal)        \
  X(kTcpSrcPort, "tcp.srcport", kDecimal)          \
  X(kTcpDstPort, "tcp.dstport", kDecimal)          \
  X(kTcpSeq, "tcp.seq", kDecimal)                  \
  X(kTcpAck, "tcp.ack", kDecimal)                  \
  X(kTcpFlagsSyn, "tcp.flags.syn", kDecimal)       \
  X(kTcpFlagsAck, "tcp.flags.ack", kDecimal)       \
  X(kTcpFlagsFin, "tcp.flags.fin", kDecimal)       \
  X(kTcpFlagsRst, "tcp.flags.rst", kDecimal)       \
  X(kTcpWindow, "tcp.window", kDecimal)            \
  X(kIcmpType, "icmp.type", kDecimal)              \
  X(kIcmpCode, "icmp.code", kDecimal)              \
  X(kIcmpIdent, "icmp.ident", kDecimal)            \
  X(kIcmpSeq, "icmp.seq", kDecimal)

enum class FieldId : std::uint8_t {
#define STREAMLAB_FIELD_ID(id, name, display) id,
  STREAMLAB_DISSECT_FIELDS(STREAMLAB_FIELD_ID)
#undef STREAMLAB_FIELD_ID
};

struct FieldInfo {
  FieldId id;
  std::string_view name;
  FieldDisplay display;
};

/// The registry, indexed by FieldId.
inline constexpr FieldInfo kFields[] = {
#define STREAMLAB_FIELD_INFO(id, name, display) {FieldId::id, name, FieldDisplay::display},
    STREAMLAB_DISSECT_FIELDS(STREAMLAB_FIELD_INFO)
#undef STREAMLAB_FIELD_INFO
};
#undef STREAMLAB_DISSECT_FIELDS

inline constexpr std::size_t kFieldCount = std::size(kFields);
static_assert(kFieldCount <= 64, "a packet's field presence is one 64-bit mask");

constexpr std::size_t index_of(FieldId id) { return static_cast<std::size_t>(id); }
constexpr const FieldInfo& field_info(FieldId id) { return kFields[index_of(id)]; }

/// The protocol layers a dissection can find; `_malformed` marks a frame
/// whose next header did not parse.
enum class Layer : std::uint8_t { kEth, kIp, kUdp, kTcp, kIcmp, kMalformed };
inline constexpr std::string_view kLayerNames[] = {"eth", "ip", "udp", "tcp", "icmp",
                                                   "_malformed"};

constexpr std::optional<FieldId> find_field(std::string_view name) {
  for (const FieldInfo& f : kFields)
    if (f.name == name) return f.id;
  return std::nullopt;
}

constexpr std::optional<Layer> find_layer(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kLayerNames); ++i)
    if (kLayerNames[i] == name) return static_cast<Layer>(i);
  return std::nullopt;
}

}  // namespace streamlab
