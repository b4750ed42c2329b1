#include "tracegen/ns_trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/expected.hpp"

namespace streamlab {
namespace {

/// The oracle for write_ns_trace: reads its "r" (receive) lines back into
/// packets, skips other events and rejects a line it cannot parse.
Expected<std::vector<SyntheticPacket>> read_ns_trace(std::istream& in) {
  std::vector<SyntheticPacket> packets;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string event, type;
    double time = 0.0;
    int from = 0, to = 0;
    std::uint32_t size = 0;
    if (!(ls >> event >> time >> from >> to >> type >> size))
      return Unexpected("malformed ns trace line " + std::to_string(line_no));
    if (event != "r") continue;
    packets.push_back({time, size, type == "frag"});
  }
  return packets;
}

SyntheticFlow sample_flow() {
  SyntheticFlow flow;
  flow.rtt_ms = 40.0;
  flow.packets = {
      {0.020000, 900, false},
      {0.120000, 1514, false},
      {0.120500, 1514, true},
      {0.121000, 300, true},
      {0.220000, 870, false},
  };
  return flow;
}

TEST(NsTrace, WritesOneLinePerPacket) {
  std::stringstream out;
  ASSERT_TRUE(write_ns_trace(out, sample_flow(), 3));
  std::size_t lines = 0;
  std::string line;
  std::stringstream copy(out.str());
  while (std::getline(copy, line)) {
    ++lines;
    EXPECT_EQ(line[0], 'r');
    EXPECT_NE(line.find(" --- 3 "), std::string::npos);
  }
  EXPECT_EQ(lines, 5u);
}

TEST(NsTrace, FragmentsMarked) {
  std::stringstream out;
  write_ns_trace(out, sample_flow());
  const std::string text = out.str();
  std::size_t frag_count = 0, pos = 0;
  while ((pos = text.find(" frag ", pos)) != std::string::npos) {
    ++frag_count;
    pos += 5;
  }
  EXPECT_EQ(frag_count, 2u);
}

TEST(NsTrace, RoundTrip) {
  const SyntheticFlow flow = sample_flow();
  std::stringstream buf;
  ASSERT_TRUE(write_ns_trace(buf, flow));
  const auto loaded = read_ns_trace(buf);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), flow.packets.size());
  for (std::size_t i = 0; i < flow.packets.size(); ++i) {
    EXPECT_NEAR((*loaded)[i].time_s, flow.packets[i].time_s, 1e-6);
    EXPECT_EQ((*loaded)[i].bytes, flow.packets[i].bytes);
    EXPECT_EQ((*loaded)[i].fragment, flow.packets[i].fragment);
  }
}

TEST(NsTrace, ReaderSkipsNonReceiveEvents) {
  std::stringstream buf(
      "r 0.1 1 0 udp 500 --- 1 1.0 0.0 0 0\n"
      "+ 0.2 1 0 udp 500 --- 1 1.0 0.0 0 0\n"
      "d 0.3 1 0 udp 500 --- 1 1.0 0.0 0 0\n"
      "r 0.4 1 0 udp 600 --- 1 1.0 0.0 0 0\n");
  const auto loaded = read_ns_trace(buf);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[1].bytes, 600u);
}

TEST(NsTrace, ReaderRejectsGarbage) {
  std::stringstream buf("this is not an ns trace\n");
  const auto loaded = read_ns_trace(buf);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("line 1"), std::string::npos);
}

TEST(NsTrace, EmptyInputGivesEmptyTrace) {
  std::stringstream buf("");
  const auto loaded = read_ns_trace(buf);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(NsTrace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/streamlab_test.nstr";
  ASSERT_TRUE(write_ns_trace_file(path, sample_flow()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const auto loaded = read_ns_trace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamlab
