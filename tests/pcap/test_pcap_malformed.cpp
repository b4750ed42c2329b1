// Malformed-input table for read_pcap: each row is a file the reader must
// refuse, with the exact error it gives, or a corner of the format it must
// accept. Files are built field by field so every length can lie.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "pcap/pcap_file.hpp"

namespace streamlab {
namespace {

struct Record {
  std::uint32_t sec = 1;
  std::uint32_t frac = 0;
  std::uint32_t incl_len = 4;
  std::uint32_t orig_len = 4;
  std::string data = "\x01\x02\x03\x04";
};

struct File {
  std::uint32_t magic = kPcapMagicNanos;
  bool big_endian = false;
  std::uint16_t version_major = 2;
  std::uint32_t snaplen = 65535;
  std::uint32_t link_type = kPcapLinkTypeEthernet;
  std::vector<Record> records;

  std::string bytes() const {
    std::string out;
    const auto put = [&](std::uint32_t v, int size) {
      for (int i = 0; i < size; ++i) {
        const int shift = big_endian ? 8 * (size - 1 - i) : 8 * i;
        out.push_back(static_cast<char>(v >> shift));
      }
    };
    put(magic, 4);
    put(version_major, 2);
    put(4, 2);  // version minor
    put(0, 4);  // thiszone
    put(0, 4);  // sigfigs
    put(snaplen, 4);
    put(link_type, 4);
    for (const Record& r : records) {
      put(r.sec, 4);
      put(r.frac, 4);
      put(r.incl_len, 4);
      put(r.orig_len, 4);
      out += r.data;
    }
    return out;
  }
};

Expected<CaptureTrace> read(const std::string& bytes) {
  std::istringstream in(bytes);
  return read_pcap(in);
}

File with_records(std::vector<Record> records, std::uint32_t snaplen = 65535) {
  File f;
  f.snaplen = snaplen;
  f.records = std::move(records);
  return f;
}

TEST(PcapMalformed, RejectsWithTodaysError) {
  const std::string kRange = "pcap record length out of range";
  File bad_magic;
  bad_magic.magic = 0x12345678;
  File version1;
  version1.version_major = 1;
  File raw_ip;
  raw_ip.link_type = 101;
  const Record second_lies{2, 0, 8, 6, "12345678"};
  const struct {
    std::string bytes;
    std::string error;
    const char* why;
  } rows[] = {
      {"", "not a pcap file (bad magic)", "empty file"},
      {bad_magic.bytes(), "not a pcap file (bad magic)", "bad magic"},
      {version1.bytes(), "unsupported pcap version", "version 1"},
      {raw_ip.bytes(), "unsupported link type", "raw-IP link type"},
      {with_records({{1, 0, 200, 200, std::string(200, 'x')}}, 100).bytes(), kRange,
       "incl_len > snaplen"},
      {with_records({{1, 0, 8, 8, "1234"}}).bytes(), kRange, "incl_len past the end"},
      {with_records({{}, {1, 0, 40, 40, ""}}).bytes(), kRange,
       "second record's incl_len past the end"},
      {with_records({{1, 0, 0xFFFFFFF0u, 0xFFFFFFF0u, "1234"}}, 0xFFFFFFFFu).bytes(), kRange,
       "incl_len near 2^32 under snaplen 0xFFFFFFFF"},
      {with_records({{1, 0, 0xFFFFFFFFu, 0xFFFFFFFFu, ""}}, 0xFFFFFFFFu).bytes(), kRange,
       "incl_len 2^32 - 1 under snaplen 0xFFFFFFFF"},
      {with_records({{1, 0, 4, 3, "1234"}}).bytes(), "pcap record 0: orig_len 3 < incl_len 4",
       "orig_len < incl_len"},
      {with_records({{}, second_lies}).bytes(), "pcap record 1: orig_len 6 < incl_len 8",
       "orig_len < incl_len in the second record"},
  };
  for (const auto& row : rows) {
    const auto trace = read(row.bytes);
    ASSERT_FALSE(trace.has_value()) << row.why;
    EXPECT_EQ(trace.error(), row.error) << row.why;
  }
}

// A file cut inside its 24-byte global header. The version is read before
// the header's length is checked, so a cut right after the magic reads
// version 0.
TEST(PcapMalformed, RejectsEveryCutOfTheGlobalHeader) {
  const std::string whole = File{}.bytes();
  for (std::size_t cut = 0; cut < 24; ++cut) {
    const auto trace = read(whole.substr(0, cut));
    ASSERT_FALSE(trace.has_value()) << "cut at " << cut;
    const char* want = cut < 4   ? "not a pcap file (bad magic)"
                       : cut < 6 ? "unsupported pcap version"
                                 : "truncated pcap global header";
    EXPECT_EQ(trace.error(), want) << "cut at " << cut;
  }
}

TEST(PcapMalformed, RejectsARecordHeaderCutAtEachOfItsBytes) {
  const std::string header = with_records({}).bytes();
  const std::string record = with_records({{}}).bytes().substr(header.size());
  for (std::size_t cut = 1; cut < 16; ++cut) {
    const auto trace = read(header + record.substr(0, cut));
    ASSERT_FALSE(trace.has_value()) << "cut at " << cut;
    EXPECT_EQ(trace.error(), "truncated pcap record header") << "cut at " << cut;
    // The same cut after a whole record.
    const auto second = read(header + record + record.substr(0, cut));
    ASSERT_FALSE(second.has_value()) << "second record cut at " << cut;
    EXPECT_EQ(second.error(), "truncated pcap record header") << "cut at " << cut;
  }
}

TEST(PcapMalformed, AcceptsAGlobalHeaderAlone) {
  const auto trace = read(with_records({}, 1234).bytes());
  ASSERT_TRUE(trace.has_value()) << trace.error();
  EXPECT_TRUE(trace->empty());
  EXPECT_EQ(trace->snaplen(), 1234u);
  EXPECT_EQ(trace->total_bytes(), 0u);
}

TEST(PcapMalformed, AcceptsZeroLengthRecords) {
  const auto trace =
      read(with_records({{5, 7, 0, 0, ""}, {6, 0, 0, 60, ""}, {}, {7, 0, 0, 0, ""}}).bytes());
  ASSERT_TRUE(trace.has_value()) << trace.error();
  ASSERT_EQ(trace->size(), 4u);
  const CaptureTrace& records = *trace;
  EXPECT_EQ(records[0].timestamp, SimTime(5'000'000'007));
  EXPECT_TRUE(records[0].data.empty());
  EXPECT_EQ(records[1].original_length, 60u);
  EXPECT_TRUE(records[1].data.empty());
  EXPECT_EQ(records[2].data.size(), 4u);
  EXPECT_TRUE(records[3].data.empty());
  EXPECT_EQ(trace->total_bytes(), 64u);
}

// The same three records written in the four variants of the format read
// as the same trace: big- or little-endian, micro- or nanosecond stamps.
TEST(PcapMalformed, ByteOrderAndResolutionTwinsReadEqual) {
  const std::vector<std::tuple<std::uint32_t, std::uint32_t, std::string>> frames = {
      {10, 500'000, "abcd"}, {11, 0, std::string(60, '\x7f')}, {12, 999'999, ""}};
  const auto variant = [&](bool big_endian, bool nanos) {
    File f;
    f.big_endian = big_endian;
    f.magic = nanos ? kPcapMagicNanos : kPcapMagicMicros;
    f.snaplen = 96;
    for (const auto& [sec, usec, data] : frames) {
      const auto len = static_cast<std::uint32_t>(data.size());
      f.records.push_back({sec, nanos ? usec * 1000 : usec, len, len + 20, data});
    }
    return read(f.bytes());
  };
  const auto twin = variant(false, true);
  ASSERT_TRUE(twin.has_value()) << twin.error();
  ASSERT_EQ(twin->size(), frames.size());
  EXPECT_EQ((*twin)[0].timestamp, SimTime(10'500'000'000));
  for (const auto& [big_endian, nanos] :
       {std::pair{false, false}, std::pair{true, false}, std::pair{true, true}}) {
    const auto trace = variant(big_endian, nanos);
    ASSERT_TRUE(trace.has_value()) << trace.error();
    EXPECT_EQ(trace->snaplen(), twin->snaplen());
    ASSERT_EQ(trace->size(), twin->size());
    for (std::size_t i = 0; i < trace->size(); ++i) {
      const CaptureRecord a = (*trace)[i];
      const CaptureRecord b = (*twin)[i];
      EXPECT_EQ(a.timestamp, b.timestamp) << big_endian << nanos << " record " << i;
      EXPECT_EQ(a.original_length, b.original_length);
      EXPECT_TRUE(std::ranges::equal(a.data, b.data));
    }
  }
}

}  // namespace
}  // namespace streamlab