#include "net/address.hpp"

#include <charconv>
#include <cstdio>

#include "util/strings.hpp"

namespace streamlab {

MacAddress MacAddress::for_nic(std::uint32_t n) {
  // Locally administered unicast prefix 02:53:4c ("SL") + NIC index.
  return MacAddress({0x02, 0x53, 0x4c, static_cast<std::uint8_t>(n >> 16),
                     static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)});
}

Expected<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  const auto parts = split(text, '.');
  if (parts.size() != 4) return Unexpected(std::string("IPv4 must have 4 octets"));
  std::uint32_t addr = 0;
  for (const auto& p : parts) {
    unsigned value = 0;
    const auto [ptr, ec] = std::from_chars(p.data(), p.data() + p.size(), value, 10);
    if (ec != std::errc{} || ptr != p.data() + p.size() || value > 255 || p.empty() ||
        (p.size() > 1 && p[0] == '0'))
      return Unexpected("bad IPv4 octet: " + p);
    addr = (addr << 8) | value;
  }
  return Ipv4Address(addr);
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (addr_ >> 24) & 0xFF, (addr_ >> 16) & 0xFF,
                (addr_ >> 8) & 0xFF, addr_ & 0xFF);
  return buf;
}

}  // namespace streamlab
