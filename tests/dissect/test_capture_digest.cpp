// Pins what the pcap reader and the dissector make of two captures: one
// clip pair of the study (set 1, low tier) and a run of hand-built TCP
// segments, some with options. Each test hashes every field number, the
// presence mask and the layer mask of every record read back through the
// reader, and checks that writing the trace it read gives the same bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/study.hpp"
#include "dissect/dissector.hpp"
#include "media/catalog.hpp"
#include "pcap/pcap_file.hpp"

namespace streamlab {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ull;
    }
  }
};

std::string hex(std::uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(v));
  return out;
}

/// Every field number and both masks of every dissected record.
std::uint64_t dissection_digest(const CaptureTrace& trace) {
  Fnv d;
  for (const DissectedPacket& p : dissect_trace(trace)) {
    for (const FieldInfo& f : kFields) d.u64(static_cast<std::uint64_t>(p.number(f.id)));
    d.u64(p.field_mask());
    d.u64(p.layer_mask());
  }
  return d.hash;
}

std::string written(const CaptureTrace& trace) {
  std::ostringstream out;
  EXPECT_TRUE(write_pcap(out, trace));
  return out.str();
}

TEST(CaptureDigest, StudyPairReadsBackToPinnedDissection) {
  const ClipSet* set1 = nullptr;
  for (const ClipSet& set : table1_catalog())
    if (set.id == 1) set1 = &set;
  ASSERT_NE(set1, nullptr);
  ExperimentConfig config;
  config.path = path_for_data_set(1, kPaperSeed);
  config.seed = kPaperSeed ^ (1u << 8) ^ static_cast<std::uint64_t>(RateTier::kLow);
  config.keep_capture = true;
  const PairRunResult run = run_clip_pair(*set1, RateTier::kLow, config);
  ASSERT_TRUE(run.real.capture.has_value());

  const std::string path = testing::TempDir() + "/streamlab_capture_digest.pcap";
  ASSERT_TRUE(write_pcap_file(path, *run.real.capture));
  const Expected<CaptureTrace> trace = read_pcap_file(path);
  ASSERT_TRUE(trace.has_value()) << trace.error();
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  std::remove(path.c_str());

  EXPECT_EQ(trace->size(), 3989u);
  EXPECT_EQ(written(*trace), bytes);
  EXPECT_EQ(hex(dissection_digest(*trace)), "9e8d4a31d2c9506b");
}

/// Sets the data-offset nibble of the TCP header in record `index` of a
/// written capture whose records are all TCP segments over plain IPv4.
void set_data_offset(std::string& pcap, std::size_t index, unsigned words) {
  std::size_t at = 24;
  for (std::size_t i = 0; i < index; ++i) {
    const auto incl = static_cast<unsigned char>(pcap[at + 8]) |
                      static_cast<unsigned char>(pcap[at + 9]) << 8;
    at += 16 + static_cast<std::size_t>(incl);
  }
  char& offset_byte = pcap[at + 16 + 14 + 20 + 12];
  offset_byte = static_cast<char>((words << 4) | (offset_byte & 0x0F));
}

// SYN, SYN/ACK, ACK, PSH/ACK with data, FIN/ACK, RST and RST/ACK. The
// segments sent with a payload of option bytes are then given the data
// offset that makes those bytes options: MSS, SACK-permitted and a window
// scale on the SYN, MSS on the SYN/ACK, timestamps on the FIN. Two more
// segments claim options they do not carry and an offset below 5, so the
// dissector marks them malformed.
TEST(CaptureDigest, TcpSegmentsReadBackToPinnedDissection) {
  const Endpoint client{Ipv4Address(10, 0, 0, 2), 3345};
  const Endpoint server{Ipv4Address(192, 168, 100, 20), 80};
  struct Segment {
    bool from_client, syn, ack, fin, rst, psh;
    std::vector<std::uint8_t> payload;
    unsigned data_offset;  ///< 0: leave the written offset of 5
  };
  const std::vector<std::uint8_t> syn_options = {2, 4, 5, 180, 4, 2, 1, 3, 3, 7, 0, 0};
  const std::vector<std::uint8_t> mss = {2, 4, 5, 180};
  const std::vector<std::uint8_t> timestamps = {1, 1, 8, 10, 0, 0, 0, 9, 0, 0, 0, 4};
  const std::vector<Segment> segments = {
      {true, true, false, false, false, false, syn_options, 8},
      {false, true, true, false, false, false, mss, 6},
      {true, false, true, false, false, false, {}, 0},
      {true, false, true, false, false, true, std::vector<std::uint8_t>(300, 0x47), 0},
      {false, false, true, true, false, false, timestamps, 8},
      {true, false, false, false, true, false, {}, 0},
      {false, false, true, false, true, false, {}, 0},
      {true, false, true, false, false, false, mss, 15},
      {true, false, true, false, false, false, {}, 4},
  };
  CaptureTrace trace;
  SimTime t = SimTime::from_seconds(3.0);
  std::uint32_t seq = 1000, ack = 5000;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    TcpHeader h;
    h.src_port = s.from_client ? client.port : server.port;
    h.dst_port = s.from_client ? server.port : client.port;
    h.seq = s.from_client ? seq : ack;
    h.ack = s.from_client ? ack : seq;
    h.flag_syn = s.syn;
    h.flag_ack = s.ack;
    h.flag_fin = s.fin;
    h.flag_rst = s.rst;
    h.flag_psh = s.psh;
    h.window = static_cast<std::uint16_t>(8192 + 512 * i);
    const Ipv4Packet pkt =
        s.from_client
            ? make_tcp_packet(client, server, h, s.payload, static_cast<std::uint16_t>(i))
            : make_tcp_packet(server, client, h, s.payload, static_cast<std::uint16_t>(i));
    trace.add_packet(t, MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
    t += Duration::millis(3);
    (s.from_client ? seq : ack) += static_cast<std::uint32_t>(s.payload.size()) + 1;
  }
  std::string bytes = written(trace);
  for (std::size_t i = 0; i < segments.size(); ++i)
    if (segments[i].data_offset != 0) set_data_offset(bytes, i, segments[i].data_offset);

  std::istringstream in(bytes);
  const Expected<CaptureTrace> read = read_pcap(in);
  ASSERT_TRUE(read.has_value()) << read.error();
  ASSERT_EQ(read->size(), segments.size());
  EXPECT_EQ(written(*read), bytes);

  const std::vector<DissectedPacket> packets = dissect_trace(*read);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(packets[i].has_layer(Layer::kTcp)) << "segment " << i;
    EXPECT_FALSE(packets[i].has_layer(Layer::kMalformed)) << "segment " << i;
  }
  EXPECT_EQ(packets[0].number(FieldId::kTcpFlagsSyn), 1);
  EXPECT_EQ(packets[1].number(FieldId::kTcpFlagsAck), 1);
  EXPECT_EQ(packets[4].number(FieldId::kTcpFlagsFin), 1);
  EXPECT_EQ(packets[5].number(FieldId::kTcpFlagsRst), 1);
  for (std::size_t i = 7; i < segments.size(); ++i) {
    EXPECT_FALSE(packets[i].has_layer(Layer::kTcp)) << "segment " << i;
    EXPECT_TRUE(packets[i].has_layer(Layer::kMalformed)) << "segment " << i;
  }
  EXPECT_EQ(hex(dissection_digest(*read)), "ca229f27456e8d88");
}

}  // namespace
}  // namespace streamlab