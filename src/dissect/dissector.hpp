// Protocol dissection: turns a captured frame into a packed record of the
// registry's fields ("ip.frag_offset", "udp.dstport", ...) in the style of
// Ethereal / Wireshark, which is what the display-filter language evaluates
// against. The dissector reads each header through the fixed-offset views
// of net/headers.hpp, the same views and validity rules the header decoders
// use, and stores each field straight into the record.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dissect/fields.hpp"
#include "pcap/capture.hpp"
#include "util/bytes.hpp"

namespace streamlab {

/// The result of dissecting one frame: a packed record holding each
/// registered field (fields.hpp) in its own width at its own offset, a
/// presence mask and a layer mask. It allocates nothing; display strings are
/// formatted when asked for.
class DissectedPacket {
 public:
  /// The capture time and wire length: frame.time_ns and frame.len.
  SimTime timestamp() const { return SimTime(number(FieldId::kFrameTimeNs)); }
  std::size_t frame_length() const {
    return static_cast<std::size_t>(number(FieldId::kFrameLen));
  }

  bool has(FieldId id) const { return (present_ >> index_of(id)) & 1; }
  /// The field's number, 0 when it is absent: one 64-bit load at the
  /// field's offset, masked to its width.
  std::int64_t number(FieldId id) const {
    const FieldSlot& slot = kFieldSlots[index_of(id)];
    return static_cast<std::int64_t>(load_u64le(bytes_ + slot.offset) & slot.mask);
  }
  bool has_layer(Layer layer) const { return (layers_ >> static_cast<unsigned>(layer)) & 1; }
  /// One bit per FieldId / Layer that is present.
  std::uint64_t field_mask() const { return present_; }
  std::uint8_t layer_mask() const { return layers_; }

  /// Stores the field's number, which must fit its width, little-endian.
  void set(FieldId id, std::int64_t value) {
    const FieldSlot& slot = kFieldSlots[index_of(id)];
    auto le = static_cast<std::uint64_t>(value);
    if constexpr (std::endian::native == std::endian::big) le = __builtin_bswap64(le);
    std::memcpy(bytes_ + slot.offset, &le, slot.width);
    present_ |= std::uint64_t{1} << index_of(id);
  }
  void add_layer(Layer layer) {
    layers_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(layer));
  }

  /// The field's display string ("192.168.100.10", "1755", ...), formatted
  /// from its number.
  std::string display(FieldId id) const;
  /// One-line summary ("12.345s IP 10.0.0.2 > 192.168.100.10 UDP 5005->4321 len=980").
  std::string summary() const;

 private:
  std::uint64_t present_ = 0;
  std::uint8_t bytes_[kPackedFieldBytes] = {};
  std::uint8_t layers_ = 0;
};
static_assert(sizeof(DissectedPacket) <= 104, "a dissected packet is one packed record");

/// Dissects a single captured frame. Malformed frames yield a packet with
/// whatever layers parsed plus a "_malformed" marker layer, rather than an
/// error — a sniffer must not lose records to bad checksums.
DissectedPacket dissect(const CaptureRecord& record);

/// Dissects a whole trace.
std::vector<DissectedPacket> dissect_trace(const CaptureTrace& trace);

}  // namespace streamlab
