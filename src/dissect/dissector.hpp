// Protocol dissection: turns a captured frame into a flat record of the
// registry's fields ("ip.frag_offset", "udp.dstport", ...) in the style of
// Ethereal / Wireshark, which is what the display-filter language evaluates
// against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dissect/fields.hpp"
#include "pcap/capture.hpp"

namespace streamlab {

/// A dissected field as the name-keyed accessor returns it: the number
/// filters compare (addresses as their 32-bit integer, booleans as 0/1, MACs
/// as 0) and its display string.
struct FieldValue {
  std::int64_t number = 0;
  std::string display;

  static FieldValue of(std::int64_t n) { return {n, std::to_string(n)}; }
  static FieldValue of(std::int64_t n, std::string text) { return {n, std::move(text)}; }
};

/// The result of dissecting one frame: a fixed-slot record with one number
/// per registered field (fields.hpp), a presence mask and a layer mask. It
/// allocates nothing; display strings are formatted when asked for.
class DissectedPacket {
 public:
  SimTime timestamp;
  std::size_t frame_length = 0;

  bool has(FieldId id) const { return (present_ >> index_of(id)) & 1; }
  /// The field's number, 0 when it is absent.
  std::int64_t number(FieldId id) const {
    return field_info(id).display == FieldDisplay::kMac ? 0 : slots_[index_of(id)];
  }
  bool has_layer(Layer layer) const { return (layers_ >> static_cast<unsigned>(layer)) & 1; }
  /// One bit per FieldId / Layer that is present.
  std::uint64_t field_mask() const { return present_; }
  std::uint8_t layer_mask() const { return layers_; }

  void set(FieldId id, std::int64_t value) {
    slots_[index_of(id)] = value;
    present_ |= std::uint64_t{1} << index_of(id);
  }
  void set(FieldId id, MacAddress mac);
  void add_layer(Layer layer) {
    layers_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(layer));
  }

  /// Name-keyed forms. A name outside the registry is an error for set and
  /// add_layer (std::invalid_argument) and simply absent for the lookups.
  /// set keeps the value's number, or parses the display of a MAC field;
  /// every display string is formatted from the slot.
  void set(std::string_view name, const FieldValue& value);
  void add_layer(std::string_view proto);
  std::optional<FieldValue> field(std::string_view name) const;
  bool has_layer(std::string_view proto) const;

  /// One-line summary ("12.345s IP 10.0.0.2 > 192.168.100.10 UDP 5005->4321 len=980").
  std::string summary() const;

 private:
  /// The field's display string ("192.168.100.10", "1755", ...).
  std::string display(FieldId id) const;

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
