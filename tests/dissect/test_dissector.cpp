#include "dissect/dissector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "net/fragmentation.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

/// The dissection of the packet's frame captured at `t`, cut to `snaplen`.
DissectedPacket dissect_of(const Ipv4Packet& pkt, double t = 1.0,
                           std::uint32_t snaplen = 65535) {
  CaptureTrace trace(snaplen);
  trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                   MacAddress::for_nic(2), pkt);
  return dissect(trace[0]);
}

TEST(Dissector, UdpFieldTree) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 42);
  const auto d = dissect_of(pkt);

  EXPECT_TRUE(d.has_layer(Layer::kEth));
  EXPECT_TRUE(d.has_layer(Layer::kIp));
  EXPECT_TRUE(d.has_layer(Layer::kUdp));
  EXPECT_FALSE(d.has_layer(Layer::kTcp));
  EXPECT_FALSE(d.has_layer(Layer::kMalformed));

  EXPECT_EQ(d.number(FieldId::kFrameLen), 14 + 20 + 8 + 100);
  EXPECT_EQ(d.number(FieldId::kIpId), 42);
  EXPECT_EQ(d.number(FieldId::kIpProto), 17);
  EXPECT_EQ(d.display(FieldId::kIpSrc), "192.168.100.10");
  EXPECT_EQ(d.display(FieldId::kIpDst), "10.0.0.2");
  EXPECT_EQ(d.number(FieldId::kIpFragment), 0);
  EXPECT_EQ(d.number(FieldId::kUdpSrcPort), 1755);
  EXPECT_EQ(d.number(FieldId::kUdpDstPort), 7000);
  EXPECT_EQ(d.number(FieldId::kUdpLength), 108);
  EXPECT_EQ(d.timestamp(), SimTime::from_seconds(1.0));
}

TEST(Dissector, FragmentFields) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);

  const auto first = dissect_of(frags[0]);
  EXPECT_TRUE(first.has_layer(Layer::kUdp));  // leading fragment carries UDP header
  EXPECT_EQ(first.number(FieldId::kIpFlagsMf), 1);
  EXPECT_EQ(first.number(FieldId::kIpFragOffset), 0);
  EXPECT_EQ(first.number(FieldId::kIpFragment), 1);

  const auto mid = dissect_of(frags[1]);
  EXPECT_FALSE(mid.has_layer(Layer::kUdp));  // no transport header
  EXPECT_EQ(mid.number(FieldId::kIpFlagsMf), 1);
  EXPECT_EQ(mid.number(FieldId::kIpFragOffset), 1480);

  const auto last = dissect_of(frags[2]);
  EXPECT_EQ(last.number(FieldId::kIpFlagsMf), 0);
  EXPECT_EQ(last.number(FieldId::kIpFragOffset), 2960);
  EXPECT_EQ(last.number(FieldId::kIpFragment), 1);
}

TEST(Dissector, TcpFieldTree) {
  TcpHeader tcp;
  tcp.seq = 5;
  tcp.flag_syn = true;
  const auto pkt = make_tcp_packet(kServer, kClient, tcp, {}, 3);
  const auto d = dissect_of(pkt);
  EXPECT_TRUE(d.has_layer(Layer::kTcp));
  EXPECT_EQ(d.number(FieldId::kTcpSeq), 5);
  EXPECT_EQ(d.number(FieldId::kTcpFlagsSyn), 1);
  EXPECT_EQ(d.number(FieldId::kTcpFlagsFin), 0);
  EXPECT_EQ(d.number(FieldId::kIpFlagsDf), 1);
}

TEST(Dissector, IcmpFieldTree) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kEchoReply;
  icmp.identifier = 7;
  icmp.sequence = 2;
  const auto pkt = make_icmp_packet(kServer.ip, kClient.ip, icmp, {}, 4);
  const auto d = dissect_of(pkt);
  EXPECT_TRUE(d.has_layer(Layer::kIcmp));
  EXPECT_EQ(d.number(FieldId::kIcmpType), 0);
  EXPECT_EQ(d.number(FieldId::kIcmpIdent), 7);
  EXPECT_EQ(d.number(FieldId::kIcmpSeq), 2);
}

TEST(Dissector, MalformedFrameMarked) {
  CaptureTrace trace;
  const std::uint8_t bytes[] = {1, 2, 3, 4, 5};
  std::ranges::copy(bytes, trace.append(SimTime::zero(), 5, sizeof bytes).begin());
  const auto d = dissect(trace[0]);
  EXPECT_TRUE(d.has_layer(Layer::kMalformed));
  EXPECT_EQ(d.number(FieldId::kFrameLen), 5);
}

TEST(Dissector, TruncatedByShortSnaplenStillYieldsHeaders) {
  // With a 96-byte snaplen the Ethernet/IP/UDP headers survive; only the
  // payload is cut. The dissector must still produce the full field tree.
  CaptureTrace trace(96);
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(800, 1), 6);
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  const auto d = dissect(trace[0]);
  EXPECT_TRUE(d.has_layer(Layer::kUdp));
  EXPECT_EQ(d.number(FieldId::kFrameLen), 14 + 20 + 8 + 800);
  EXPECT_EQ(d.number(FieldId::kFrameCapLen), 96);
}

TEST(Dissector, SummaryLine) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1), 1);
  const auto d = dissect_of(pkt, 12.5);
  const std::string s = d.summary();
  EXPECT_NE(s.find("192.168.100.10"), std::string::npos);
  EXPECT_NE(s.find("UDP"), std::string::npos);
  EXPECT_NE(s.find("1755"), std::string::npos);
}

TEST(Dissector, DissectTraceBulk) {
  CaptureTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.add_packet(SimTime::from_seconds(i), MacAddress::for_nic(1),
                     MacAddress::for_nic(2),
                     make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1),
                                     static_cast<std::uint16_t>(i)));
  }
  const auto all = dissect_trace(trace);
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(all[static_cast<std::size_t>(i)].number(FieldId::kIpId), i);
}

/// FNV-1a over the (name, number, display) of every field present, in name
/// order, then the summary line: the whole visible result of a dissection.
struct FieldDump {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void bytes(std::string_view s) {
    for (const char c : s) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ull;
    }
    hash ^= 0xff;  // field separator
    hash *= 0x100000001b3ull;
  }
  void packet(const DissectedPacket& d) {
    std::vector<const FieldInfo*> by_name;
    for (const FieldInfo& f : kFields) by_name.push_back(&f);
    std::sort(by_name.begin(), by_name.end(),
              [](const FieldInfo* a, const FieldInfo* b) { return a->name < b->name; });
    for (const FieldInfo* f : by_name) {
      if (!d.has(f->id)) continue;
      bytes(f->name);
      bytes(std::to_string(d.number(f->id)));
      bytes(d.display(f->id));
    }
    bytes(d.summary());
  }
};

// A UDP datagram, the three fragments of a large one, a TCP SYN, an ICMP
// echo and a frame cut inside its IP header. The digest pins every name,
// number and display string (dotted quads included) byte for byte; eth.src
// and eth.dst carry presence only, so both display as their number, 0.
TEST(Dissector, FieldDumpGolden) {
  FieldDump dump;
  dump.packet(dissect_of(
      make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 42), 1.25));
  const auto big = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  for (const auto& frag : fragment_packet(big, kDefaultMtu))
    dump.packet(dissect_of(frag, 2.5));
  TcpHeader syn;
  syn.seq = 1000;
  syn.flag_syn = true;
  syn.window = 8192;
  dump.packet(dissect_of(make_tcp_packet(kClient, kServer, syn, {}, 3), 3.0));
  IcmpHeader echo;
  echo.type = IcmpType::kEchoRequest;
  echo.identifier = 7;
  echo.sequence = 2;
  dump.packet(dissect_of(make_icmp_packet(kClient.ip, kServer.ip, echo, {}, 4), 4.0));
  // Cut inside the IP header by a 30-byte snaplen.
  dump.packet(dissect_of(
      make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 5), 5.0, 30));

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(dump.hash));
  EXPECT_STREQ(hex, "208e20a8b9b7c265");
}

TEST(Dissector, RegistryNamesRoundTrip) {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    EXPECT_EQ(index_of(kFields[i].id), i);
    const auto id = find_field(kFields[i].name);
    ASSERT_TRUE(id.has_value()) << kFields[i].name;
    EXPECT_EQ(*id, kFields[i].id) << kFields[i].name;
  }
  for (std::size_t i = 0; i < std::size(kLayerNames); ++i)
    EXPECT_EQ(find_layer(kLayerNames[i]), static_cast<Layer>(i)) << kLayerNames[i];
  EXPECT_FALSE(find_field("udp.port").has_value());  // a filter alias, not a field
  EXPECT_FALSE(find_layer("frame").has_value());

  // Every bit the dissector sets names a registered field or layer.
  const std::uint64_t fields = kFieldCount == 64 ? ~0ull : (1ull << kFieldCount) - 1;
  const unsigned layers = (1u << std::size(kLayerNames)) - 1;
  const auto big = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  std::vector<Ipv4Packet> packets = fragment_packet(big, kDefaultMtu);
  TcpHeader tcp;
  tcp.flag_ack = true;
  packets.push_back(make_tcp_packet(kServer, kClient, tcp, {}, 1));
  packets.push_back(make_icmp_packet(kServer.ip, kClient.ip, IcmpHeader{}, {}, 2));
  for (const auto& pkt : packets) {
    const auto d = dissect_of(pkt);
    EXPECT_EQ(d.field_mask() & ~fields, 0u);
    EXPECT_EQ(d.layer_mask() & ~layers, 0u);
  }
}

}  // namespace
}  // namespace streamlab
