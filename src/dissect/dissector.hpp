// Protocol dissection: turns a captured frame into a flat record of the
// registry's fields ("ip.frag_offset", "udp.dstport", ...) in the style of
// Ethereal / Wireshark, which is what the display-filter language evaluates
// against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dissect/fields.hpp"
#include "pcap/capture.hpp"

namespace streamlab {

/// The result of dissecting one frame: a fixed-slot record with one number
/// per registered field (fields.hpp), a presence mask and a layer mask. It
/// allocates nothing; display strings are formatted when asked for.
class DissectedPacket {
 public:
  SimTime timestamp;
  std::size_t frame_length = 0;

  bool has(FieldId id) const { return (present_ >> index_of(id)) & 1; }
  /// The field's number, 0 when it is absent.
  std::int64_t number(FieldId id) const { return slots_[index_of(id)]; }
  bool has_layer(Layer layer) const { return (layers_ >> static_cast<unsigned>(layer)) & 1; }
  /// One bit per FieldId / Layer that is present.
  std::uint64_t field_mask() const { return present_; }
  std::uint8_t layer_mask() const { return layers_; }

  void set(FieldId id, std::int64_t value) {
    slots_[index_of(id)] = value;
    present_ |= std::uint64_t{1} << index_of(id);
  }
  void add_layer(Layer layer) {
    layers_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(layer));
  }

  /// The field's display string ("192.168.100.10", "1755", ...), formatted
  /// from its slot.
  std::string display(FieldId id) const;
  /// One-line summary ("12.345s IP 10.0.0.2 > 192.168.100.10 UDP 5005->4321 len=980").
  std::string summary() const;

 private:
  std::int64_t slots_[kFieldCount] = {};
  std::uint64_t present_ = 0;
  std::uint8_t layers_ = 0;
};

/// Dissects a single captured frame. Malformed frames yield a packet with
/// whatever layers parsed plus a "_malformed" marker layer, rather than an
/// error — a sniffer must not lose records to bad checksums.
DissectedPacket dissect(const CaptureRecord& record);

/// Dissects a whole trace.
std::vector<DissectedPacket> dissect_trace(const CaptureTrace& trace);

}  // namespace streamlab
