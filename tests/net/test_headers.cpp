#include "net/headers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

TEST(EthernetHeader, EncodeDecodeRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress({1, 2, 3, 4, 5, 6});
  h.src = MacAddress({7, 8, 9, 10, 11, 12});
  h.ethertype = kEtherTypeIpv4;

  std::uint8_t buf[kEthernetHeaderSize + 1];
  SpanWriter w(buf);
  h.write(w);
  EXPECT_EQ(w.rest().size(), 1u);  // the header took its 14 bytes

  EXPECT_TRUE(std::equal(h.dst.octets().begin(), h.dst.octets().end(), buf));
  EXPECT_TRUE(std::equal(h.src.octets().begin(), h.src.octets().end(), buf + 6));
  EXPECT_EQ(EthernetView{buf}.ethertype(), kEtherTypeIpv4);
}

TEST(EthernetHeader, DecodeTruncatedFails) {
  const std::uint8_t short_buf[10] = {};
  const auto parsed = parse_frame(short_buf);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error(), "truncated Ethernet header");
}

Ipv4Header sample_ip_header() {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0x1234;
  h.ttl = 64;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Address(192, 168, 100, 10);
  h.dst = Ipv4Address(10, 0, 0, 2);
  return h;
}

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
  Ipv4Header h = sample_ip_header();
  h.more_fragments = true;
  h.fragment_offset_units = 185;  // 1480 bytes
  h.dont_fragment = false;

  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), kIpv4HeaderSize);

  const auto buf = w.take();
  ByteReader r(buf);
  const auto d = Ipv4Header::decode(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->total_length, 1500);
  EXPECT_EQ(d->identification, 0x1234);
  EXPECT_TRUE(d->more_fragments);
  EXPECT_FALSE(d->dont_fragment);
  EXPECT_EQ(d->fragment_offset_units, 185);
  EXPECT_EQ(d->fragment_offset_bytes(), 1480u);
  EXPECT_EQ(d->ttl, 64);
  EXPECT_EQ(d->protocol, kIpProtoUdp);
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
}

TEST(Ipv4Header, EncodedChecksumVerifies) {
  ByteWriter w;
  sample_ip_header().encode(w);
  EXPECT_EQ(internet_checksum(w.view()), 0);
}

TEST(Ipv4Header, CorruptedChecksumRejected) {
  ByteWriter w;
  sample_ip_header().encode(w);
  auto buf = w.take();
  buf[8] ^= 0xFF;  // flip TTL bits
  ByteReader r(buf);
  EXPECT_FALSE(Ipv4Header::decode(r).has_value());
}

// decode verifies the checksum with its own unrolled sum over the 20
// bytes; its verdict must be internet_checksum's on any header. Half the
// headers carry their correct checksum, the rest one flipped bit, and the
// sums include the ones that fold through 0xFFFF.
TEST(Ipv4Header, DecodeChecksumVerdictIsInternetChecksums) {
  Rng rng(1071);
  for (int i = 0; i < 20000; ++i) {
    std::array<std::uint8_t, kIpv4HeaderSize> h;
    for (auto& b : h) b = static_cast<std::uint8_t>(rng.next_u64());
    if (i % 7 == 0) std::fill(h.begin() + 1, h.end(), 0xFF);
    h[0] = 0x45;
    h[10] = h[11] = 0;
    store_u16be(h.data() + 10, internet_checksum(h));
    if (i % 2 == 1) h[rng.uniform_int(0, 19)] ^= static_cast<std::uint8_t>(1u << (i % 8));
    if (h[0] != 0x45) continue;  // the flip hit the version or IHL
    ByteReader r(h);
    const auto decoded = Ipv4Header::decode(r);
    EXPECT_EQ(decoded.has_value(), internet_checksum(h) == 0) << "header " << i;
    if (!decoded) {
      EXPECT_EQ(decoded.error(), "bad IPv4 header checksum");
    }
  }
}

TEST(Ipv4Header, FragmentPredicates) {
  Ipv4Header h;
  EXPECT_FALSE(h.is_fragment());
  EXPECT_FALSE(h.is_trailing_fragment());

  h.more_fragments = true;  // first fragment of a group
  EXPECT_TRUE(h.is_fragment());
  EXPECT_FALSE(h.is_trailing_fragment());

  h.more_fragments = false;
  h.fragment_offset_units = 185;  // last fragment
  EXPECT_TRUE(h.is_fragment());
  EXPECT_TRUE(h.is_trailing_fragment());
}

TEST(Ipv4Header, DfAndMfFlagsIndependent) {
  Ipv4Header h = sample_ip_header();
  h.dont_fragment = true;
  ByteWriter w;
  h.encode(w);
  const auto buf = w.take();
  ByteReader r(buf);
  const auto d = Ipv4Header::decode(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->dont_fragment);
  EXPECT_FALSE(d->more_fragments);
}

TEST(UdpHeader, EncodeDecodeRoundTripWithChecksum) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  UdpHeader h;
  h.src_port = 7070;
  h.dst_port = 6970;
  h.length = static_cast<std::uint16_t>(kUdpHeaderSize + sizeof payload);

  const Ipv4Address src(192, 168, 100, 10), dst(10, 0, 0, 2);
  ByteWriter w;
  h.encode(w, src, dst, payload);
  EXPECT_EQ(w.size(), kUdpHeaderSize);

  const auto buf = w.take();
  ByteReader r(buf);
  const auto d = UdpHeader::decode(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_port, 7070);
  EXPECT_EQ(d->dst_port, 6970);
  EXPECT_EQ(d->length, 13);
  EXPECT_NE(d->checksum, 0);  // checksum always computed

  // Verify: checksum over pseudo-header + segment (with checksum in place)
  // must fold to zero.
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(kIpProtoUdp);
  acc.add_u16(static_cast<std::uint16_t>(buf.size() + sizeof payload));
  acc.add(buf);
  acc.add(payload);
  EXPECT_EQ(acc.fold(), 0);
}

TEST(UdpHeader, DecodeRejectsBadLength) {
  ByteWriter w;
  w.u16be(1);
  w.u16be(2);
  w.u16be(4);  // < 8: impossible
  w.u16be(0);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_FALSE(UdpHeader::decode(r).has_value());
}

TEST(TcpHeader, EncodeDecodeRoundTripFlags) {
  TcpHeader h;
  h.src_port = 80;
  h.dst_port = 43210;
  h.seq = 0xDEADBEEF;
  h.ack = 0x12345678;
  h.flag_syn = true;
  h.flag_ack = true;
  h.window = 8192;

  ByteWriter w;
  h.encode(w, Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), {});
  EXPECT_EQ(w.size(), kTcpHeaderSize);

  const auto buf = w.take();
  ByteReader r(buf);
  const auto d = TcpHeader::decode(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, 0xDEADBEEF);
  EXPECT_EQ(d->ack, 0x12345678u);
  EXPECT_TRUE(d->flag_syn);
  EXPECT_TRUE(d->flag_ack);
  EXPECT_FALSE(d->flag_fin);
  EXPECT_FALSE(d->flag_rst);
  EXPECT_EQ(d->window, 8192);
}

TEST(IcmpHeader, EchoRoundTrip) {
  IcmpHeader h;
  h.type = IcmpType::kEchoRequest;
  h.identifier = 0x7069;
  h.sequence = 3;

  const std::uint8_t payload[] = {0xA5, 0xA5};
  ByteWriter w;
  h.encode(w, payload);
  EXPECT_EQ(w.size(), kIcmpHeaderSize);

  const auto buf = w.take();
  ByteReader r(buf);
  const auto d = IcmpHeader::decode(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, IcmpType::kEchoRequest);
  EXPECT_EQ(d->identifier, 0x7069);
  EXPECT_EQ(d->sequence, 3);

  // Whole ICMP message (header + payload) checksums to zero.
  ChecksumAccumulator acc;
  acc.add(buf);
  acc.add(payload);
  EXPECT_EQ(acc.fold(), 0);
}

}  // namespace
}  // namespace streamlab
