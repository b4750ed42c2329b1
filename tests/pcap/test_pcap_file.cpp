#include "pcap/pcap_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "util/bytes.hpp"

namespace streamlab {
namespace {

CaptureTrace sample_trace(int packets = 3, std::uint32_t snaplen = 65535) {
  CaptureTrace trace(snaplen);
  for (int i = 0; i < packets; ++i) {
    const auto pkt = make_udp_packet(Endpoint{Ipv4Address(1, 1, 1, 1), 10},
                                     Endpoint{Ipv4Address(2, 2, 2, 2), 20},
                                     std::vector<std::uint8_t>(50 + i, 0x33),
                                     static_cast<std::uint16_t>(i));
    trace.add_packet(SimTime(1'000'000'000LL * i + 123'456'789), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), pkt);
  }
  return trace;
}

TEST(PcapFile, RoundTripsExactly) {
  const CaptureTrace original = sample_trace();
  std::stringstream buf;
  ASSERT_TRUE(write_pcap(buf, original));

  const auto loaded = read_pcap(buf);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->snaplen(), original.snaplen());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const CaptureRecord a = original[i];
    const CaptureRecord b = (*loaded)[i];
    EXPECT_EQ(a.timestamp, b.timestamp) << "record " << i;  // nanosecond exact
    EXPECT_EQ(a.original_length, b.original_length);
    EXPECT_TRUE(std::ranges::equal(a.data, b.data));
  }
}

TEST(PcapFile, GlobalHeaderLayout) {
  std::stringstream buf;
  ASSERT_TRUE(write_pcap(buf, sample_trace(0)));
  const std::string raw = buf.str();
  ASSERT_EQ(raw.size(), 24u);  // empty trace: global header only

  const auto bytes = std::span(reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
  ByteReader r(bytes);
  EXPECT_EQ(r.u32le(), kPcapMagicNanos);
  EXPECT_EQ(r.u16le(), 2);  // version major
  EXPECT_EQ(r.u16le(), 4);  // version minor
  r.u32le();                // thiszone
  r.u32le();                // sigfigs
  EXPECT_EQ(r.u32le(), 65535u);
  EXPECT_EQ(r.u32le(), kPcapLinkTypeEthernet);
}

TEST(PcapFile, ReadsMicrosecondVariant) {
  // Hand-build a classic microsecond pcap with one 4-byte record.
  ByteWriter w;
  w.u32le(kPcapMagicMicros);
  w.u16le(2);
  w.u16le(4);
  w.u32le(0);
  w.u32le(0);
  w.u32le(65535);
  w.u32le(1);
  w.u32le(10);      // ts_sec
  w.u32le(500000);  // ts_usec
  w.u32le(4);       // incl_len
  w.u32le(4);       // orig_len
  w.u32le(0xAABBCCDD);

  std::stringstream buf;
  const auto view = w.view();
  buf.write(reinterpret_cast<const char*>(view.data()),
            static_cast<std::streamsize>(view.size()));

  const auto loaded = read_pcap(buf);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].timestamp, SimTime::from_seconds(10.5));
}

TEST(PcapFile, RejectsBadMagic) {
  std::stringstream buf("not a pcap file at all........");
  const auto r = read_pcap(buf);
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("magic"), std::string::npos);
}

TEST(PcapFile, RejectsTruncatedRecord) {
  const CaptureTrace original = sample_trace(1);
  std::stringstream buf;
  ASSERT_TRUE(write_pcap(buf, original));
  std::string raw = buf.str();
  raw.resize(raw.size() - 10);  // chop the record body
  std::stringstream cut(raw);
  EXPECT_FALSE(read_pcap(cut).has_value());
}

TEST(PcapFile, RejectsOversizedRecordLength) {
  ByteWriter w;
  w.u32le(kPcapMagicNanos);
  w.u16le(2);
  w.u16le(4);
  w.u32le(0);
  w.u32le(0);
  w.u32le(100);  // snaplen
  w.u32le(1);
  w.u32le(0);
  w.u32le(0);
  w.u32le(500);  // incl_len > snaplen
  w.u32le(500);
  std::stringstream buf;
  const auto view = w.view();
  buf.write(reinterpret_cast<const char*>(view.data()),
            static_cast<std::streamsize>(view.size()));
  EXPECT_FALSE(read_pcap(buf).has_value());
}

TEST(PcapFile, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/streamlab_test.pcap";
  const CaptureTrace original = sample_trace(5);
  ASSERT_TRUE(write_pcap_file(path, original));
  const auto loaded = read_pcap_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 5u);
  std::remove(path.c_str());
}

TEST(PcapFile, MissingFileReportsError) {
  const auto r = read_pcap_file("/nonexistent/path/foo.pcap");
  EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace streamlab
