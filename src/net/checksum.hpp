// RFC 1071 Internet checksum, as used by IPv4, UDP, TCP and ICMP.
#pragma once

#include <cstdint>
#include <span>

#include "net/address.hpp"

namespace streamlab {

/// Running one's-complement sum; fold() produces the final checksum value.
/// Sections may be added piecewise (header, pseudo-header, payload), cut
/// anywhere, odd lengths included; add() sums eight bytes per step.
class ChecksumAccumulator {
 public:
  void add(std::span<const std::uint8_t> data);
  void add_u16(std::uint16_t v);
  void add_u32(std::uint32_t v);
  /// Final folded, complemented checksum in host order.
  std::uint16_t fold() const;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // true when the byte stream so far has odd length
};

/// One-shot checksum of a buffer.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// UDP/TCP checksum including the IPv4 pseudo-header over the transport
/// header (checksum field zeroed) followed by the payload: either the whole
/// segment as `header`, or the two parts where they live apart.
std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> header,
                                 std::span<const std::uint8_t> payload = {});

}  // namespace streamlab
