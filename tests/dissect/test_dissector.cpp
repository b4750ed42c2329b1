#include "dissect/dissector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "net/fragmentation.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

CaptureRecord record_of(const Ipv4Packet& pkt, double t = 1.0) {
  CaptureTrace trace;
  trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                   MacAddress::for_nic(2), pkt);
  return trace.records()[0];
}

TEST(Dissector, UdpFieldTree) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 42);
  const auto d = dissect(record_of(pkt));

  EXPECT_TRUE(d.has_layer("eth"));
  EXPECT_TRUE(d.has_layer("ip"));
  EXPECT_TRUE(d.has_layer("udp"));
  EXPECT_FALSE(d.has_layer("tcp"));
  EXPECT_FALSE(d.has_layer("_malformed"));

  EXPECT_EQ(d.field("frame.len")->number, 14 + 20 + 8 + 100);
  EXPECT_EQ(d.field("ip.id")->number, 42);
  EXPECT_EQ(d.field("ip.proto")->number, 17);
  EXPECT_EQ(d.field("ip.src")->display, "192.168.100.10");
  EXPECT_EQ(d.field("ip.dst")->display, "10.0.0.2");
  EXPECT_EQ(d.field("ip.fragment")->number, 0);
  EXPECT_EQ(d.field("udp.srcport")->number, 1755);
  EXPECT_EQ(d.field("udp.dstport")->number, 7000);
  EXPECT_EQ(d.field("udp.length")->number, 108);
  EXPECT_FALSE(d.field("no.such.field").has_value());
  EXPECT_EQ(d.timestamp, SimTime::from_seconds(1.0));
}

TEST(Dissector, FragmentFields) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);

  const auto first = dissect(record_of(frags[0]));
  EXPECT_TRUE(first.has_layer("udp"));  // leading fragment carries UDP header
  EXPECT_EQ(first.field("ip.flags.mf")->number, 1);
  EXPECT_EQ(first.field("ip.frag_offset")->number, 0);
  EXPECT_EQ(first.field("ip.fragment")->number, 1);

  const auto mid = dissect(record_of(frags[1]));
  EXPECT_FALSE(mid.has_layer("udp"));  // no transport header
  EXPECT_EQ(mid.field("ip.flags.mf")->number, 1);
  EXPECT_EQ(mid.field("ip.frag_offset")->number, 1480);

  const auto last = dissect(record_of(frags[2]));
  EXPECT_EQ(last.field("ip.flags.mf")->number, 0);
  EXPECT_EQ(last.field("ip.frag_offset")->number, 2960);
  EXPECT_EQ(last.field("ip.fragment")->number, 1);
}

TEST(Dissector, TcpFieldTree) {
  TcpHeader tcp;
  tcp.seq = 5;
  tcp.flag_syn = true;
  const auto pkt = make_tcp_packet(kServer, kClient, tcp, {}, 3);
  const auto d = dissect(record_of(pkt));
  EXPECT_TRUE(d.has_layer("tcp"));
  EXPECT_EQ(d.field("tcp.seq")->number, 5);
  EXPECT_EQ(d.field("tcp.flags.syn")->number, 1);
  EXPECT_EQ(d.field("tcp.flags.fin")->number, 0);
  EXPECT_EQ(d.field("ip.flags.df")->number, 1);
}

TEST(Dissector, IcmpFieldTree) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kEchoReply;
  icmp.identifier = 7;
  icmp.sequence = 2;
  const auto pkt = make_icmp_packet(kServer.ip, kClient.ip, icmp, {}, 4);
  const auto d = dissect(record_of(pkt));
  EXPECT_TRUE(d.has_layer("icmp"));
  EXPECT_EQ(d.field("icmp.type")->number, 0);
  EXPECT_EQ(d.field("icmp.ident")->number, 7);
  EXPECT_EQ(d.field("icmp.seq")->number, 2);
}

TEST(Dissector, MalformedFrameMarked) {
  CaptureRecord rec;
  rec.timestamp = SimTime::zero();
  rec.original_length = 5;
  rec.data = {1, 2, 3, 4, 5};
  const auto d = dissect(rec);
  EXPECT_TRUE(d.has_layer("_malformed"));
  EXPECT_EQ(d.field("frame.len")->number, 5);
}

TEST(Dissector, TruncatedByShortSnaplenStillYieldsHeaders) {
  // With a 96-byte snaplen the Ethernet/IP/UDP headers survive; only the
  // payload is cut. The dissector must still produce the full field tree.
  CaptureTrace trace(96);
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(800, 1), 6);
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  const auto d = dissect(trace.records()[0]);
  EXPECT_TRUE(d.has_layer("udp"));
  EXPECT_EQ(d.field("frame.len")->number, 14 + 20 + 8 + 800);
  EXPECT_EQ(d.field("frame.cap_len")->number, 96);
}

TEST(Dissector, SummaryLine) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1), 1);
  const auto d = dissect(record_of(pkt, 12.5));
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
    EXPECT_EQ(all[static_cast<std::size_t>(i)].field("ip.id")->number, i);
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
    std::vector<std::string_view> names;
    for (const FieldInfo& f : kFields) names.push_back(f.name);
    std::sort(names.begin(), names.end());
    for (const std::string_view name : names) {
      const auto value = d.field(name);
      if (!value) continue;
      bytes(name);
      bytes(std::to_string(value->number));
      bytes(value->display);
    }
    bytes(d.summary());
  }
};

// A UDP datagram, the three fragments of a large one, a TCP SYN, an ICMP
// echo and a frame cut inside its IP header. The digest was recorded from
// the name-keyed field map the registry replaced, so it pins every name,
// number and display string (MACs and dotted quads included) byte for byte.
TEST(Dissector, FieldDumpGolden) {
  FieldDump dump;
  dump.packet(dissect(record_of(
      make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 42), 1.25)));
  const auto big = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  for (const auto& frag : fragment_packet(big, kDefaultMtu))
    dump.packet(dissect(record_of(frag, 2.5)));
  TcpHeader syn;
  syn.seq = 1000;
  syn.flag_syn = true;
  syn.window = 8192;
  dump.packet(dissect(record_of(make_tcp_packet(kClient, kServer, syn, {}, 3), 3.0)));
  IcmpHeader echo;
  echo.type = IcmpType::kEchoRequest;
  echo.identifier = 7;
  echo.sequence = 2;
  dump.packet(dissect(record_of(make_icmp_packet(kClient.ip, kServer.ip, echo, {}, 4), 4.0)));
  CaptureRecord cut = record_of(
      make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 5), 5.0);
  cut.data.resize(30);
  dump.packet(dissect(cut));

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(dump.hash));
  EXPECT_STREQ(hex, "a3172f8fc9e818ee");
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
  std::vector<CaptureRecord> records;
  for (const auto& frag : fragment_packet(big, kDefaultMtu)) records.push_back(record_of(frag));
  TcpHeader tcp;
  tcp.flag_ack = true;
  records.push_back(record_of(make_tcp_packet(kServer, kClient, tcp, {}, 1)));
  records.push_back(record_of(make_icmp_packet(kServer.ip, kClient.ip, IcmpHeader{}, {}, 2)));
  for (const auto& rec : records) {
    const auto d = dissect(rec);
    EXPECT_EQ(d.field_mask() & ~fields, 0u);
    EXPECT_EQ(d.layer_mask() & ~layers, 0u);
  }
}

TEST(Dissector, NamesOutsideTheRegistryAreRejected) {
  DissectedPacket d;
  EXPECT_THROW(d.set("ip.nosuch", FieldValue::of(1)), std::invalid_argument);
  EXPECT_THROW(d.set("udp.port", FieldValue::of(1)), std::invalid_argument);
  EXPECT_THROW(d.add_layer("frame"), std::invalid_argument);
  EXPECT_EQ(d.field_mask(), 0u);
  EXPECT_EQ(d.layer_mask(), 0u);

  d.set("eth.src", FieldValue::of(0, "00:11:22:33:44:55"));
  EXPECT_EQ(d.field("eth.src")->display, "00:11:22:33:44:55");
  EXPECT_EQ(d.field("eth.src")->number, 0);
  EXPECT_THROW(d.set("eth.dst", FieldValue::of(0, "not-a-mac")), std::invalid_argument);
  d.set("ip.dst", FieldValue::of(0x0A000002, "ignored"));
  EXPECT_EQ(d.field("ip.dst")->display, "10.0.0.2");  // formatted from the number
  d.add_layer("udp");
  EXPECT_TRUE(d.has_layer("udp"));
  EXPECT_FALSE(d.has_layer("nosuch"));
}

}  // namespace
}  // namespace streamlab
