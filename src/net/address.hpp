// Link-layer and network-layer addresses.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "util/expected.hpp"

namespace streamlab {

/// 48-bit IEEE 802 MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> octets) : octets_(octets) {}

  /// Deterministic fabricated address for simulated NIC number `n`.
  static MacAddress for_nic(std::uint32_t n);

  constexpr const std::array<std::uint8_t, 6>& octets() const { return octets_; }
  constexpr auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

/// IPv4 address held in host byte order.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) : addr_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : addr_((static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
              (static_cast<std::uint32_t>(c) << 8) | d) {}

  /// Strict dotted quad: four decimal octets 0-255, no sign, space or
  /// leading zero ("0" itself is fine). A leading zero is rejected because
  /// inet_aton reads such an octet as octal ("192.168.096.1").
  static Expected<Ipv4Address> parse(std::string_view text);

  constexpr std::uint32_t value() const { return addr_; }
  constexpr auto operator<=>(const Ipv4Address&) const = default;

  /// True when both addresses share the /24 prefix — the paper's criterion
  /// for "clips served from the same subnet".
  constexpr bool same_slash24(Ipv4Address other) const {
    return (addr_ >> 8) == (other.addr_ >> 8);
  }

  std::string to_string() const;

 private:
  std::uint32_t addr_ = 0;
};

/// UDP/TCP endpoint.
struct Endpoint {
  Ipv4Address ip;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace streamlab
