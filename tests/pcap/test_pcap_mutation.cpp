// Seeded mutation tests for the first decoder pair, the pcap reader and the
// dissector: start from a capture the system writes, then truncate it, lie
// in its record lengths and flip bits in its Ethernet, IPv4 and UDP headers.
// read_pcap must return a trace or an error; every record of a trace must
// dissect, and every registry field and the summary must format.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dissect/conversations.hpp"
#include "filter/evaluator.hpp"
#include "net/fragmentation.hpp"
#include "net/headers.hpp"
#include "pcap/pcap_file.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

constexpr std::size_t kGlobalHeader = 24;
constexpr std::size_t kRecordHeader = 16;
constexpr std::size_t kUdpHeadersEnd = 14 + 20 + 8;  // Ethernet + IPv4 + UDP

/// A UDP datagram, the three fragments of a large one, a TCP segment and an
/// ICMP echo, as the system writes them.
std::string written_capture() {
  const Endpoint server{Ipv4Address(192, 168, 100, 10), 1755};
  const Endpoint client{Ipv4Address(10, 0, 0, 2), 7000};
  CaptureTrace trace;
  SimTime t = SimTime::from_seconds(1.0);
  const auto add = [&](const Ipv4Packet& pkt) {
    trace.add_packet(t, MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
    t += Duration::millis(7);
  };
  add(make_udp_packet(server, client, std::vector<std::uint8_t>(100, 1), 1));
  for (const auto& frag : fragment_packet(
           make_udp_packet(server, client, std::vector<std::uint8_t>(3000, 2), 2),
           kDefaultMtu))
    add(frag);
  TcpHeader tcp;
  tcp.flag_syn = true;
  add(make_tcp_packet(client, server, tcp, {}, 3));
  add(make_icmp_packet(client.ip, server.ip, IcmpHeader{}, {}, 4));
  std::ostringstream out;
  EXPECT_TRUE(write_pcap(out, trace));
  return out.str();
}

std::uint32_t u32_at(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  return v;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// The offset of each record header, then the end of the file.
std::vector<std::size_t> record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t at = kGlobalHeader; at < bytes.size();
       at += kRecordHeader + u32_at(bytes, at + 8))
    offsets.push_back(at);
  offsets.push_back(bytes.size());
  return offsets;
}

/// Reads a (mutated) capture and works every record through the dissector,
/// every registry field, the summary, a filter and the conversation table.
/// Returns the record count, or nullopt when the reader reports an error.
std::optional<std::size_t> read_and_dissect(const std::string& bytes) {
  std::istringstream in(bytes);
  const Expected<CaptureTrace> trace = read_pcap(in);
  if (!trace) {
    EXPECT_FALSE(trace.error().empty());
    return std::nullopt;
  }
  const std::vector<DissectedPacket> packets = dissect_trace(*trace);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const DissectedPacket& d = packets[i];
    EXPECT_TRUE(d.has(FieldId::kFrameLen));
    for (const FieldInfo& f : kFields) (void)d.display(f.id);
    EXPECT_FALSE(d.summary().empty());
    // The MAC addresses stay in the frame bytes; the dissection marks
    // eth.src and eth.dst present exactly when the bytes hold them.
    const bool has_macs = (*trace)[i].data.size() >= kEthernetHeaderSize;
    EXPECT_EQ(d.has(FieldId::kEthSrc), has_macs);
    EXPECT_EQ(d.has(FieldId::kEthDst), has_macs);
  }
  (void)filter::DisplayFilter::compile("ip.frag_offset > 0 || udp.port == 1755")
      ->select(packets);
  ConversationTable table;
  table.add_all(packets);
  return trace->size();
}

TEST(PcapMutation, TruncationAtEveryByteOfTheHeaderAndFirstRecords) {
  const std::string bytes = written_capture();
  const auto offsets = record_offsets(bytes);
  ASSERT_EQ(offsets.size(), 7u);  // six records and the end
  ASSERT_EQ(read_and_dissect(bytes), 6u);
  for (std::size_t cut = 0; cut <= offsets[3]; ++cut) {
    const auto read = read_and_dissect(bytes.substr(0, cut));
    const auto boundary = std::find(offsets.begin(), offsets.end(), cut);
    if (cut < kGlobalHeader || boundary == offsets.end()) {
      EXPECT_FALSE(read.has_value()) << "cut at " << cut;
    } else {
      EXPECT_EQ(read, static_cast<std::size_t>(boundary - offsets.begin()))
          << "cut at " << cut;
    }
  }
}

TEST(PcapMutation, RecordLengthLies) {
  const std::string bytes = written_capture();
  const auto offsets = record_offsets(bytes);
  for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
    const std::size_t incl_at = offsets[r] + 8;
    const std::size_t orig_at = offsets[r] + 12;
    const std::uint32_t incl = u32_at(bytes, incl_at);
    const auto remaining =
        static_cast<std::uint32_t>(bytes.size() - offsets[r] - kRecordHeader);

    std::string lie = bytes;
    put_u32(lie, incl_at, 65535 + 1);  // incl_len > snaplen
    EXPECT_FALSE(read_and_dissect(lie).has_value()) << "record " << r;

    lie = bytes;
    put_u32(lie, incl_at, remaining + 1);  // incl_len > the bytes left
    EXPECT_FALSE(read_and_dissect(lie).has_value()) << "record " << r;

    lie = bytes;
    put_u32(lie, orig_at, incl - 1);  // orig_len < incl_len
    EXPECT_FALSE(read_and_dissect(lie).has_value()) << "record " << r;

    // Shorter lengths desynchronise the records after it: a trace or an
    // error, never a crash.
    for (const std::uint32_t shorter : {0u, incl / 2, incl - 1}) {
      lie = bytes;
      put_u32(lie, incl_at, shorter);
      (void)read_and_dissect(lie);
    }
  }
}

TEST(PcapMutation, BitFlipsInTheGlobalHeader) {
  const std::string bytes = written_capture();
  for (std::size_t bit = 0; bit < 8 * kGlobalHeader; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    (void)read_and_dissect(flipped);
  }
}

TEST(PcapMutation, BitFlipsInEthernetIpv4AndUdpHeaders) {
  const std::string bytes = written_capture();
  const auto offsets = record_offsets(bytes);
  // Every single bit of each record's first 42 bytes: the whole header
  // stack of a UDP datagram, and Ethernet + IPv4 + payload of a fragment.
  for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
    const std::size_t data = offsets[r] + kRecordHeader;
    const std::size_t end = std::min(data + kUdpHeadersEnd, offsets[r + 1]);
    for (std::size_t bit = 8 * data; bit < 8 * end; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_EQ(read_and_dissect(flipped), offsets.size() - 1) << "bit " << bit;
    }
  }
  // Seeded multi-bit flips across the same headers.
  Rng rng(1408);
  for (int i = 0; i < 500; ++i) {
    std::string flipped = bytes;
    const auto flips = rng.uniform_int(2, 6);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(offsets.size()) - 2));
      const std::size_t data = offsets[r] + kRecordHeader;
      const std::size_t end = std::min(data + kUdpHeadersEnd, offsets[r + 1]);
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(data), static_cast<std::int64_t>(end) - 1));
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng.uniform_int(0, 7)));
    }
    EXPECT_EQ(read_and_dissect(flipped), offsets.size() - 1) << "case " << i;
  }
}

}  // namespace
}  // namespace streamlab
