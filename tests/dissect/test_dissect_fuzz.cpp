// Fuzz: the dissector and frame parser must accept arbitrary bytes without
// crashing — a sniffer cannot choose what appears on the wire.
#include <gtest/gtest.h>

#include <algorithm>

#include "dissect/dissector.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

TEST(DissectFuzz, RandomBytesNeverCrash) {
  Rng rng(424242);
  for (int i = 0; i < 3000; ++i) {
    CaptureTrace trace;
    const SimTime when(rng.uniform_int(0, 1'000'000'000));
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    for (auto& b : trace.append(when, static_cast<std::uint32_t>(len), len))
      b = static_cast<std::uint8_t>(rng.next_u64());

    const DissectedPacket pkt = dissect(trace[0]);
    // Frame-level fields always present, whatever the bytes were.
    ASSERT_TRUE(pkt.has(FieldId::kFrameLen));
    EXPECT_EQ(pkt.number(FieldId::kFrameLen), static_cast<std::int64_t>(len));
    (void)pkt.summary();
  }
}

TEST(DissectFuzz, BitFlippedRealFramesNeverCrash) {
  // Start from a valid frame and flip random bits: the dissector must mark
  // corruption (checksum) or parse best-effort, never misbehave.
  Rng rng(7);
  const auto pkt = make_udp_packet(Endpoint{Ipv4Address(1, 2, 3, 4), 1000},
                                   Endpoint{Ipv4Address(5, 6, 7, 8), 2000},
                                   std::vector<std::uint8_t>(100, 0x55), 42);
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);

  for (int i = 0; i < 2000; ++i) {
    CaptureTrace trace;
    const auto bytes = frame.bytes();
    const auto data =
        trace.append(SimTime::zero(), static_cast<std::uint32_t>(bytes.size()), bytes.size());
    std::ranges::copy(bytes, data.begin());
    // Flip 1-4 random bits.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
      data[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    const DissectedPacket out = dissect(trace[0]);
    ASSERT_TRUE(out.has(FieldId::kFrameLen));
  }
}

TEST(DissectFuzz, ParseFrameRejectsGracefully) {
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(rng.uniform_int(0, 100)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto parsed = parse_frame(junk);
    if (parsed.has_value()) {
      // If it parsed, the invariants hold.
      EXPECT_EQ(parsed->eth.ethertype, kEtherTypeIpv4);
    }
  }
}

TEST(DissectFuzz, TruncationSweepOnValidFrame) {
  const auto pkt = make_udp_packet(Endpoint{Ipv4Address(1, 2, 3, 4), 1000},
                                   Endpoint{Ipv4Address(5, 6, 7, 8), 2000},
                                   std::vector<std::uint8_t>(64, 0xAA), 7);
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  const auto bytes = frame.bytes();
  // Every prefix length must be handled.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    CaptureTrace trace;
    std::ranges::copy(bytes.first(cut),
                      trace.append(SimTime::zero(), static_cast<std::uint32_t>(bytes.size()), cut)
                          .begin());
    const DissectedPacket out = dissect(trace[0]);
    ASSERT_TRUE(out.has(FieldId::kFrameCapLen));
    EXPECT_EQ(out.number(FieldId::kFrameCapLen), static_cast<std::int64_t>(cut));
  }
}

}  // namespace
}  // namespace streamlab
