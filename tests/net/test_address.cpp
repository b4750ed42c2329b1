#include "net/address.hpp"

#include <string_view>

#include <gtest/gtest.h>

namespace streamlab {
namespace {

TEST(MacAddress, ForNicIsDeterministicAndDistinct) {
  EXPECT_EQ(MacAddress::for_nic(1), MacAddress::for_nic(1));
  EXPECT_NE(MacAddress::for_nic(1), MacAddress::for_nic(2));
  // Locally administered unicast: bit 1 of first octet set, bit 0 clear.
  EXPECT_EQ(MacAddress::for_nic(7).octets()[0] & 0x03, 0x02);
}

TEST(Ipv4Address, OctetConstructorAndToString) {
  const Ipv4Address addr(192, 168, 100, 10);
  EXPECT_EQ(addr.value(), 0xC0A8640Au);
  EXPECT_EQ(addr.to_string(), "192.168.100.10");
}

TEST(Ipv4Address, ParseValid) {
  const struct {
    const char* text;
    Ipv4Address want;
  } rows[] = {
      {"10.0.0.2", Ipv4Address(10, 0, 0, 2)},
      {"0.0.0.0", Ipv4Address(0, 0, 0, 0)},
      {"255.255.255.255", Ipv4Address(255, 255, 255, 255)},
      {"192.168.100.10", Ipv4Address(192, 168, 100, 10)},
      {"1.0.20.0", Ipv4Address(1, 0, 20, 0)},  // a lone 0 is not a leading zero
  };
  for (const auto& row : rows) {
    const auto parsed = Ipv4Address::parse(row.text);
    ASSERT_TRUE(parsed.has_value()) << row.text;
    EXPECT_EQ(*parsed, row.want) << row.text;
    EXPECT_EQ(parsed->to_string(), row.text);
  }
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  const struct {
    std::string_view text;
    const char* why;
  } rows[] = {
      {"", "empty"},
      {"10.0.0", "three octets"},
      {"10.0.0.2.3", "five octets"},
      {"114.114.114.114.114.114.114.114", "eight octets"},
      {"10..0.2", "empty inner octet"},
      {".10.0.2", "empty first octet"},
      {"10.0.0.", "trailing dot"},
      {"10.0.0.2.", "trailing dot after four octets"},
      {"...", "only dots"},
      {" 10.0.0.2", "leading space"},
      {"10.0.0.2 ", "trailing space"},
      {"10.0. 0.2", "inner space"},
      {"10.0.0.2\n", "trailing newline"},
      {"+10.0.0.2", "plus sign"},
      {"10.-0.0.2", "minus sign"},
      {"10.0.0.256", "256"},
      {"256.256.256.256", "256 everywhere"},
      {"10.0.0.1234", "four digits"},
      {"10.0.0.99999999999999999999", "overlong digit run"},
      {"10.0.0.0000000001", "overlong run of zeros"},
      {"1.2.3.04", "leading zero"},
      {"192.168.096.1", "leading zero, octal to inet_aton"},
      {"00.0.0.0", "double zero"},
      {"10.0.0.x", "letter"},
      {"127.0.0.1x", "trailing letter"},
      {"127.0x.0.1", "hex prefix"},
      {"0x7f.0.0.1", "hex octet"},
      {"127.0.0.1:8080", "port"},
      {"::1", "IPv6"},
      {"\xef\xbc\x91.2.3.4", "fullwidth digit one (non-ASCII)"},
      {"10.0.0.\xff", "non-ASCII byte"},
      {std::string_view("10.0\0.0.2", 9), "embedded NUL"},
  };
  for (const auto& row : rows) {
    EXPECT_FALSE(Ipv4Address::parse(row.text).has_value()) << row.why;
  }
}

TEST(Ipv4Address, SameSlash24) {
  // The paper's clip-selection criterion: servers on the same subnet.
  EXPECT_TRUE(Ipv4Address(192, 168, 100, 10).same_slash24(Ipv4Address(192, 168, 100, 11)));
  EXPECT_FALSE(Ipv4Address(192, 168, 100, 10).same_slash24(Ipv4Address(192, 168, 101, 10)));
}

TEST(Endpoint, ComparisonOrdersByAddressThenPort) {
  const Endpoint a{Ipv4Address(10, 0, 0, 2), 6970};
  const Endpoint b{Ipv4Address(10, 0, 0, 2), 6971};
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LT(b, (Endpoint{Ipv4Address(10, 0, 0, 3), 1}));
}

}  // namespace
}  // namespace streamlab
