#include "net/address.hpp"

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
  const auto parsed = Ipv4Address::parse("10.0.0.2");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("10.0.0").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..0.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
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
