// The field registry: every field a dissected packet can carry, declared once
// with its Wireshark name, how its value is displayed and how many bytes it
// takes in a packed record, plus the protocol layer names. A dissected packet
// stores each field at a fixed byte offset computed here, once, at compile
// time; the filter compiler resolves names to ids here, once per filter.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace streamlab {

/// How a field's number is shown: in decimal or as a dotted quad.
enum class FieldDisplay : std::uint8_t { kDecimal, kIpv4 };

// (id, Wireshark name, display, width), grouped by layer in dissection
// order. The width is the bytes the value takes in a record: a header
// field's own width (a flag takes a byte, the fragment offset in bytes two),
// 4 for the frame lengths and 8 for the capture timestamp. eth.src and
// eth.dst have width 0: they carry presence only, their number is 0, and
// the addresses stay in the frame bytes.
#define STREAMLAB_DISSECT_FIELDS(X)                    \
  X(kFrameLen, "frame.len", kDecimal, 4)           \
  X(kFrameCapLen, "frame.cap_len", kDecimal, 4)    \
  X(kFrameTimeNs, "frame.time_ns", kDecimal, 8)    \
  X(kEthSrc, "eth.src", kDecimal, 0)               \
  X(kEthDst, "eth.dst", kDecimal, 0)               \
  X(kEthType, "eth.type", kDecimal, 2)             \
  X(kIpLen, "ip.len", kDecimal, 2)                 \
  X(kIpId, "ip.id", kDecimal, 2)                   \
  X(kIpFlagsDf, "ip.flags.df", kDecimal, 1)        \
  X(kIpFlagsMf, "ip.flags.mf", kDecimal, 1)        \
  X(kIpFragOffset, "ip.frag_offset", kDecimal, 2)  \
  X(kIpFragment, "ip.fragment", kDecimal, 1)       \
  X(kIpTtl, "ip.ttl", kDecimal, 1)                 \
  X(kIpProto, "ip.proto", kDecimal, 1)             \
  X(kIpSrc, "ip.src", kIpv4, 4)                    \
  X(kIpDst, "ip.dst", kIpv4, 4)                    \
  X(kIpPayloadLen, "ip.payload_len", kDecimal, 2)  \
  X(kUdpSrcPort, "udp.srcport", kDecimal, 2)       \
  X(kUdpDstPort, "udp.dstport", kDecimal, 2)       \
  X(kUdpLength, "udp.length", kDecimal, 2)         \
  X(kUdpChecksum, "udp.checksum", kDecimal, 2)     \
  X(kTcpSrcPort, "tcp.srcport", kDecimal, 2)       \
  X(kTcpDstPort, "tcp.dstport", kDecimal, 2)       \
  X(kTcpSeq, "tcp.seq", kDecimal, 4)               \
  X(kTcpAck, "tcp.ack", kDecimal, 4)               \
  X(kTcpFlagsSyn, "tcp.flags.syn", kDecimal, 1)    \
  X(kTcpFlagsAck, "tcp.flags.ack", kDecimal, 1)    \
  X(kTcpFlagsFin, "tcp.flags.fin", kDecimal, 1)    \
  X(kTcpFlagsRst, "tcp.flags.rst", kDecimal, 1)    \
  X(kTcpWindow, "tcp.window", kDecimal, 2)         \
  X(kIcmpType, "icmp.type", kDecimal, 1)           \
  X(kIcmpCode, "icmp.code", kDecimal, 1)           \
  X(kIcmpIdent, "icmp.ident", kDecimal, 2)         \
  X(kIcmpSeq, "icmp.seq", kDecimal, 2)

enum class FieldId : std::uint8_t {
#define STREAMLAB_FIELD_ID(id, name, display, width) id,
  STREAMLAB_DISSECT_FIELDS(STREAMLAB_FIELD_ID)
#undef STREAMLAB_FIELD_ID
};

struct FieldInfo {
  FieldId id;
  std::string_view name;
  FieldDisplay display;
  std::uint8_t width;  ///< bytes in a packed record
};

/// The registry, indexed by FieldId.
inline constexpr FieldInfo kFields[] = {
#define STREAMLAB_FIELD_INFO(id, name, display, width) \
  {FieldId::id, name, FieldDisplay::display, width},
    STREAMLAB_DISSECT_FIELDS(STREAMLAB_FIELD_INFO)
#undef STREAMLAB_FIELD_INFO
};
#undef STREAMLAB_DISSECT_FIELDS

inline constexpr std::size_t kFieldCount = std::size(kFields);
static_assert(kFieldCount <= 64, "a packet's field presence is one 64-bit mask");

constexpr std::size_t index_of(FieldId id) { return static_cast<std::size_t>(id); }
constexpr const FieldInfo& field_info(FieldId id) { return kFields[index_of(id)]; }

static_assert(std::ranges::all_of(kFields, [](const FieldInfo& f) {
                return f.width == 0 || f.width == 1 || f.width == 2 || f.width == 4 ||
                       f.width == 8;
              }),
              "a field is 0, 1, 2, 4 or 8 bytes wide");

/// Where a field lies in a packed record: its byte offset, its width, and
/// the mask that keeps its bytes of a 64-bit little-endian load at the
/// offset.
struct FieldSlot {
  std::uint64_t mask;
  std::uint8_t offset;
  std::uint8_t width;
};

/// Every field's slot, indexed by FieldId. Fields are laid out narrowest
/// first, so the 8-byte timestamp comes last and a 64-bit load at any
/// field's offset stays inside the record. Width-0 fields take no bytes and
/// mask everything off.
inline constexpr std::array<FieldSlot, kFieldCount> kFieldSlots = [] {
  std::array<FieldSlot, kFieldCount> slots{};
  std::size_t at = 0;
  for (std::size_t width = 1; width <= 8; width *= 2)
    for (std::size_t i = 0; i < kFieldCount; ++i)
      if (kFields[i].width == width) {
        const std::uint64_t mask =
            width == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * width)) - 1;
        slots[i] = {mask, static_cast<std::uint8_t>(at), kFields[i].width};
        at += width;
      }
  return slots;
}();

/// The bytes of a packed record: every field's width, summed.
inline constexpr std::size_t kPackedFieldBytes = [] {
  std::size_t sum = 0;
  for (const FieldInfo& f : kFields) sum += f.width;
  return sum;
}();
static_assert(std::ranges::all_of(kFieldSlots,
                                  [](const FieldSlot& s) {
                                    return s.offset + 8u <= kPackedFieldBytes;
                                  }),
              "a 64-bit load at a field's offset stays inside the record");

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
