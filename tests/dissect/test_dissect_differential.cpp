// Differential test of the dissector: every frame is dissected by `dissect`
// and `dissect_trace` and by ReferenceDissector, a test-only oracle that
// walks the frame through the header decoders (Ipv4Header::decode,
// UdpHeader::decode, ...) and stores each field in an int64 slot of its
// own. Both must agree on the presence mask, the layer mask and the number
// of every registry field, over a study capture, random and bit-flipped
// frames, hand-built TCP segments with every data offset and frames cut at
// every byte of their headers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/experiment.hpp"
#include "core/study.hpp"
#include "dissect/dissector.hpp"
#include "media/catalog.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

/// The oracle's record: one int64 per registry field, plus both masks.
struct ReferencePacket {
  std::int64_t numbers[kFieldCount] = {};
  std::uint64_t fields = 0;
  std::uint8_t layers = 0;

  void set(FieldId id, std::int64_t value) {
    numbers[index_of(id)] = value;
    fields |= std::uint64_t{1} << index_of(id);
  }
  void add_layer(Layer layer) {
    layers |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(layer));
  }
};

/// The dissection as the header decoders define it: decode each header into
/// its struct, then copy the struct's fields into the record.
class ReferenceDissector {
 public:
  static ReferencePacket dissect(const CaptureRecord& record) {
    using enum FieldId;
    ReferencePacket pkt;
    pkt.set(kFrameLen, static_cast<std::int64_t>(record.original_length));
    pkt.set(kFrameCapLen, static_cast<std::int64_t>(record.data.size()));
    pkt.set(kFrameTimeNs, record.timestamp.ns());

    // An Ethernet header is valid when it is whole; only its ethertype
    // (bytes 12-13) is read.
    ByteReader r(record.data);
    const auto eth = r.bytes(kEthernetHeaderSize);
    if (eth.size() != kEthernetHeaderSize) {
      pkt.add_layer(Layer::kMalformed);
      return pkt;
    }
    const std::uint16_t ethertype = load_u16be(eth.data() + 12);
    pkt.add_layer(Layer::kEth);
    pkt.set(kEthSrc, 0);
    pkt.set(kEthDst, 0);
    pkt.set(kEthType, ethertype);
    if (ethertype != kEtherTypeIpv4) return pkt;

    auto ip = Ipv4Header::decode(r);
    if (!ip) {
      pkt.add_layer(Layer::kMalformed);
      return pkt;
    }
    pkt.add_layer(Layer::kIp);
    pkt.set(kIpLen, ip->total_length);
    pkt.set(kIpId, ip->identification);
    pkt.set(kIpFlagsDf, ip->dont_fragment ? 1 : 0);
    pkt.set(kIpFlagsMf, ip->more_fragments ? 1 : 0);
    pkt.set(kIpFragOffset, static_cast<std::int64_t>(ip->fragment_offset_bytes()));
    pkt.set(kIpFragment, ip->is_fragment() ? 1 : 0);
    pkt.set(kIpTtl, ip->ttl);
    pkt.set(kIpProto, ip->protocol);
    pkt.set(kIpSrc, ip->src.value());
    pkt.set(kIpDst, ip->dst.value());
    const std::size_t payload_length =
        ip->total_length >= kIpv4HeaderSize ? ip->total_length - kIpv4HeaderSize : 0;
    if (ip->is_trailing_fragment()) {
      pkt.set(kIpPayloadLen, static_cast<std::int64_t>(payload_length));
      return pkt;
    }

    const std::size_t ip_payload = std::min<std::size_t>(payload_length, r.remaining());
    ByteReader tr(r.bytes(ip_payload));
    switch (ip->protocol) {
      case kIpProtoUdp: {
        auto udp = UdpHeader::decode(tr);
        if (!udp) {
          pkt.add_layer(Layer::kMalformed);
          return pkt;
        }
        pkt.add_layer(Layer::kUdp);
        pkt.set(kUdpSrcPort, udp->src_port);
        pkt.set(kUdpDstPort, udp->dst_port);
        pkt.set(kUdpLength, udp->length);
        pkt.set(kUdpChecksum, udp->checksum);
        break;
      }
      case kIpProtoTcp: {
        auto tcp = TcpHeader::decode(tr);
        if (!tcp) {
          pkt.add_layer(Layer::kMalformed);
          return pkt;
        }
        pkt.add_layer(Layer::kTcp);
        pkt.set(kTcpSrcPort, tcp->src_port);
        pkt.set(kTcpDstPort, tcp->dst_port);
        pkt.set(kTcpSeq, tcp->seq);
        pkt.set(kTcpAck, tcp->ack);
        pkt.set(kTcpFlagsSyn, tcp->flag_syn ? 1 : 0);
        pkt.set(kTcpFlagsAck, tcp->flag_ack ? 1 : 0);
        pkt.set(kTcpFlagsFin, tcp->flag_fin ? 1 : 0);
        pkt.set(kTcpFlagsRst, tcp->flag_rst ? 1 : 0);
        pkt.set(kTcpWindow, tcp->window);
        break;
      }
      case kIpProtoIcmp: {
        auto icmp = IcmpHeader::decode(tr);
        if (!icmp) {
          pkt.add_layer(Layer::kMalformed);
          return pkt;
        }
        pkt.add_layer(Layer::kIcmp);
        pkt.set(kIcmpType, static_cast<std::int64_t>(icmp->type));
        pkt.set(kIcmpCode, icmp->code);
        pkt.set(kIcmpIdent, icmp->identifier);
        pkt.set(kIcmpSeq, icmp->sequence);
        break;
      }
      default:
        break;
    }
    return pkt;
  }
};

/// How many records of a corpus reached each layer: a corpus that never
/// reaches a layer cannot show a difference in it.
struct LayerCounts {
  std::size_t n[std::size(kLayerNames)] = {};
  std::size_t operator[](Layer layer) const { return n[static_cast<std::size_t>(layer)]; }
};

void expect_same(const char* corpus, std::size_t i, const DissectedPacket& got,
                 const ReferencePacket& want) {
  ASSERT_EQ(got.field_mask(), want.fields) << corpus << " record " << i;
  ASSERT_EQ(got.layer_mask(), want.layers) << corpus << " record " << i;
  for (const FieldInfo& f : kFields)
    ASSERT_EQ(got.number(f.id), want.numbers[index_of(f.id)])
        << corpus << " record " << i << ": " << f.name;
}

/// Dissects every record of `trace` both ways and compares the results.
LayerCounts expect_same_dissection(const char* corpus, const CaptureTrace& trace) {
  LayerCounts counts;
  const std::vector<DissectedPacket> packets = dissect_trace(trace);
  EXPECT_EQ(packets.size(), trace.size()) << corpus;
  for (std::size_t i = 0; i < trace.size() && i < packets.size(); ++i) {
    const ReferencePacket want = ReferenceDissector::dissect(trace[i]);
    expect_same(corpus, i, packets[i], want);
    expect_same(corpus, i, dissect(trace[i]), want);
    if (testing::Test::HasFatalFailure()) return counts;
    for (std::size_t l = 0; l < std::size(kLayerNames); ++l)
      counts.n[l] += (want.layers >> l) & 1;
  }
  return counts;
}

void add_frame(CaptureTrace& trace, std::span<const std::uint8_t> bytes,
               std::uint32_t wire_length, SimTime when = SimTime::from_seconds(2.5)) {
  std::ranges::copy(bytes, trace.append(when, wire_length, bytes.size()).begin());
}

/// Rewrites the IPv4 header checksum of an Ethernet frame, so that edits to
/// the header leave it valid.
void fix_ipv4_checksum(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kEthernetHeaderSize + kIpv4HeaderSize) return;
  std::uint8_t* ip = frame.data() + kEthernetHeaderSize;
  store_u16be(ip + 10, 0);
  store_u16be(ip + 10, internet_checksum({ip, kIpv4HeaderSize}));
}

std::vector<std::uint8_t> frame_bytes(const Ipv4Packet& pkt) {
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  return {frame.bytes().begin(), frame.bytes().end()};
}

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

/// One frame of each shape the dissector tells apart: UDP, TCP with
/// options, ICMP, a leading and a trailing fragment, another IP protocol
/// and another ethertype.
std::vector<std::vector<std::uint8_t>> shapes() {
  std::vector<std::vector<std::uint8_t>> out;
  out.push_back(frame_bytes(make_udp_packet(kServer, kClient,
                                            std::vector<std::uint8_t>(100, 0x55), 42)));
  TcpHeader tcp;
  tcp.seq = 0xFEDCBA98;
  tcp.ack = 0x01234567;
  tcp.flag_syn = tcp.flag_ack = true;
  tcp.window = 4096;
  std::vector<std::uint8_t> tcp_frame = frame_bytes(
      make_tcp_packet(kClient, kServer, tcp, std::vector<std::uint8_t>{2, 4, 5, 180}, 7));
  tcp_frame[kEthernetHeaderSize + kIpv4HeaderSize + 12] = 6 << 4;  // MSS option
  out.push_back(tcp_frame);
  IcmpHeader icmp;
  icmp.type = IcmpType::kTimeExceeded;
  icmp.code = 1;
  icmp.identifier = 0xBEEF;
  icmp.sequence = 9;
  out.push_back(frame_bytes(
      make_icmp_packet(kServer.ip, kClient.ip, icmp, std::vector<std::uint8_t>(28, 3), 5)));
  Ipv4Packet lead = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(60, 1), 11);
  lead.header.more_fragments = true;
  out.push_back(frame_bytes(lead));
  Ipv4Packet trailing = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(60, 1), 12);
  trailing.header.fragment_offset_units = 185;
  out.push_back(frame_bytes(trailing));
  Ipv4Packet other = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(40, 2), 13);
  other.header.protocol = 47;
  out.push_back(frame_bytes(other));
  std::vector<std::uint8_t> arp = frame_bytes(other);
  arp[12] = 0x08;
  arp[13] = 0x06;
  out.push_back(arp);
  return out;
}

TEST(DissectDifferential, StudyPairCapture) {
  const ClipSet* set1 = nullptr;
  for (const ClipSet& set : table1_catalog())
    if (set.id == 1) set1 = &set;
  ASSERT_NE(set1, nullptr);
  ExperimentConfig config;
  config.path = path_for_data_set(1, kPaperSeed);
  config.seed = kPaperSeed ^ (1u << 8) ^ static_cast<std::uint64_t>(RateTier::kHigh);
  config.keep_capture = true;
  const PairRunResult run = run_clip_pair(*set1, RateTier::kHigh, config);
  ASSERT_TRUE(run.real.capture.has_value());
  ASSERT_GT(run.real.capture->size(), 1000u);

  const LayerCounts counts = expect_same_dissection("study", *run.real.capture);
  EXPECT_GT(counts[Layer::kUdp], 0u);
  EXPECT_GT(counts[Layer::kIp], counts[Layer::kUdp]);  // trailing fragments
}

// DissectFuzz.RandomBytesNeverCrash's corpus.
TEST(DissectDifferential, RandomBytes) {
  Rng rng(424242);
  CaptureTrace trace;
  for (int i = 0; i < 3000; ++i) {
    const SimTime when(rng.uniform_int(0, 1'000'000'000));
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    for (auto& b : trace.append(when, static_cast<std::uint32_t>(len), len))
      b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const LayerCounts counts = expect_same_dissection("random bytes", trace);
  EXPECT_GT(counts[Layer::kMalformed], 0u);
}

// DissectFuzz.BitFlippedRealFramesNeverCrash's corpus, then the same flips
// over every shape with the IPv4 checksum rewritten afterwards, so that the
// flipped headers reach the version, length, fragment and transport rules.
TEST(DissectDifferential, BitFlippedFrames) {
  Rng rng(7);
  const std::vector<std::uint8_t> udp = frame_bytes(make_udp_packet(
      Endpoint{Ipv4Address(1, 2, 3, 4), 1000}, Endpoint{Ipv4Address(5, 6, 7, 8), 2000},
      std::vector<std::uint8_t>(100, 0x55), 42));
  CaptureTrace trace;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> bytes = udp;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    add_frame(trace, bytes, static_cast<std::uint32_t>(bytes.size()));
  }
  expect_same_dissection("bit flips", trace);

  Rng header_rng(8);
  CaptureTrace repaired;
  for (const std::vector<std::uint8_t>& shape : shapes()) {
    for (int i = 0; i < 1500; ++i) {
      std::vector<std::uint8_t> bytes = shape;
      const auto headers = std::min<std::int64_t>(static_cast<std::int64_t>(bytes.size()), 62);
      const int flips = static_cast<int>(header_rng.uniform_int(1, 3));
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(header_rng.uniform_int(0, headers - 1));
        bytes[pos] ^= static_cast<std::uint8_t>(1u << header_rng.uniform_int(0, 7));
      }
      fix_ipv4_checksum(bytes);
      add_frame(repaired, bytes, static_cast<std::uint32_t>(bytes.size()));
    }
  }
  const LayerCounts counts = expect_same_dissection("repaired bit flips", repaired);
  for (const Layer layer : {Layer::kUdp, Layer::kTcp, Layer::kIcmp, Layer::kMalformed})
    EXPECT_GT(counts[layer], 0u) << kLayerNames[static_cast<std::size_t>(layer)];
}

// Every data offset on segments with 0-40 bytes after the fixed header, and
// IPv4 total lengths that end the segment before the frame does: an offset
// below 5, or one whose options pass the end of the segment, is malformed.
TEST(DissectDifferential, TcpDataOffsets) {
  CaptureTrace trace;
  for (const std::size_t extra : {0u, 4u, 12u, 40u}) {
    TcpHeader tcp;
    tcp.src_port = 3345;
    tcp.dst_port = 80;
    tcp.seq = 1000;
    tcp.flag_ack = true;
    const std::vector<std::uint8_t> base = frame_bytes(
        make_tcp_packet(kClient, kServer, tcp, std::vector<std::uint8_t>(extra, 1), 3));
    for (unsigned words = 0; words < 16; ++words) {
      for (const std::size_t cut_segment : {0u, 4u, 8u}) {
        std::vector<std::uint8_t> bytes = base;
        std::uint8_t& offset = bytes[kEthernetHeaderSize + kIpv4HeaderSize + 12];
        offset = static_cast<std::uint8_t>((words << 4) | (offset & 0x0F));
        const std::size_t total = bytes.size() - kEthernetHeaderSize;
        store_u16be(bytes.data() + kEthernetHeaderSize + 2,
                    static_cast<std::uint16_t>(total - std::min(cut_segment, extra)));
        fix_ipv4_checksum(bytes);
        add_frame(trace, bytes, static_cast<std::uint32_t>(bytes.size()));
      }
    }
  }
  const LayerCounts counts = expect_same_dissection("tcp offsets", trace);
  EXPECT_GT(counts[Layer::kTcp], 0u);
  EXPECT_GT(counts[Layer::kMalformed], 0u);
}

// Each shape cut at every byte of its headers and a few bytes past them.
TEST(DissectDifferential, FramesCutAtEveryHeaderByte) {
  CaptureTrace trace;
  for (const std::vector<std::uint8_t>& shape : shapes()) {
    const std::size_t last = std::min<std::size_t>(shape.size(), 70);
    for (std::size_t cut = 0; cut <= last; ++cut)
      add_frame(trace, std::span(shape).first(cut), static_cast<std::uint32_t>(shape.size()));
  }
  const LayerCounts counts = expect_same_dissection("cut frames", trace);
  EXPECT_GT(counts[Layer::kMalformed], 0u);
  EXPECT_GT(counts[Layer::kTcp], 0u);
}

// The largest number each field can hold in a frame round-trips through
// set() and number(), with every other field set beside it.
TEST(DissectDifferential, LargestFieldValuesRoundTrip) {
  using enum FieldId;
  constexpr std::int64_t u8 = 0xFF, u16 = 0xFFFF, u32 = 0xFFFFFFFF;
  const struct {
    FieldId id;
    std::int64_t largest;
  } rows[] = {
      {kFrameLen, u32},     {kFrameCapLen, u32},
      {kFrameTimeNs, std::numeric_limits<std::int64_t>::max()},
      {kEthSrc, 0},         {kEthDst, 0},          {kEthType, u16},
      {kIpLen, u16},        {kIpId, u16},          {kIpFlagsDf, 1},
      {kIpFlagsMf, 1},      {kIpFragOffset, 0x1FFF * 8},
      {kIpFragment, 1},     {kIpTtl, u8},          {kIpProto, u8},
      {kIpSrc, u32},        {kIpDst, u32},         {kIpPayloadLen, u16 - 20},
      {kUdpSrcPort, u16},   {kUdpDstPort, u16},    {kUdpLength, u16},
      {kUdpChecksum, u16},  {kTcpSrcPort, u16},    {kTcpDstPort, u16},
      {kTcpSeq, u32},       {kTcpAck, u32},        {kTcpFlagsSyn, 1},
      {kTcpFlagsAck, 1},    {kTcpFlagsFin, 1},     {kTcpFlagsRst, 1},
      {kTcpWindow, u16},    {kIcmpType, u8},       {kIcmpCode, u8},
      {kIcmpIdent, u16},    {kIcmpSeq, u16},
  };
  ASSERT_EQ(std::size(rows), kFieldCount);

  DissectedPacket forward, backward;
  for (const auto& row : rows) forward.set(row.id, row.largest);
  for (std::size_t i = std::size(rows); i-- > 0;) backward.set(rows[i].id, rows[i].largest);
  for (const auto& row : rows) {
    DissectedPacket alone;
    alone.set(row.id, row.largest);
    EXPECT_EQ(alone.number(row.id), row.largest) << field_info(row.id).name;
    EXPECT_EQ(alone.field_mask(), std::uint64_t{1} << index_of(row.id));
    EXPECT_EQ(forward.number(row.id), row.largest) << field_info(row.id).name;
    EXPECT_EQ(backward.number(row.id), row.largest) << field_info(row.id).name;
  }
  EXPECT_EQ(forward.field_mask(), (std::uint64_t{1} << kFieldCount) - 1);
}

}  // namespace
}  // namespace streamlab
