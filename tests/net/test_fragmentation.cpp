#include "net/fragmentation.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

TEST(Fragmentation, SmallPacketPassesThrough) {
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(100), 1);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_FALSE(frags[0].header.is_fragment());
  EXPECT_EQ(frags[0].payload, pkt.payload);
}

TEST(Fragmentation, PaperWirePattern3125ByteFrame) {
  // A 250 Kbps MediaPlayer application frame: 3125 media bytes + headers.
  // The paper observes 1514-byte wire frames: 1500-byte IP packets.
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3125), 2);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);

  // First two fragments fill the MTU exactly (1480-byte payloads).
  EXPECT_EQ(frags[0].total_length(), 1500u);
  EXPECT_EQ(frags[1].total_length(), 1500u);
  EXPECT_LT(frags[2].total_length(), 1500u);

  // Offsets advance in 8-byte units; MF set on all but the last.
  EXPECT_EQ(frags[0].header.fragment_offset_units, 0);
  EXPECT_EQ(frags[1].header.fragment_offset_bytes(), 1480u);
  EXPECT_EQ(frags[2].header.fragment_offset_bytes(), 2960u);
  EXPECT_TRUE(frags[0].header.more_fragments);
  EXPECT_TRUE(frags[1].header.more_fragments);
  EXPECT_FALSE(frags[2].header.more_fragments);

  // All fragments share the datagram identification.
  EXPECT_EQ(frags[0].header.identification, 2);
  EXPECT_EQ(frags[1].header.identification, 2);
  EXPECT_EQ(frags[2].header.identification, 2);

  // Only the first carries the UDP header bytes.
  EXPECT_TRUE(frags[0].header.fragment_offset_units == 0);
  EXPECT_TRUE(frags[1].header.is_trailing_fragment());

  // 2 of 3 packets are trailing fragments: the 66% of Figure 5 at ~300 Kbps.
  EXPECT_NEAR(2.0 / 3.0, 0.667, 0.001);
}

TEST(Fragmentation, DfPacketTooLargeIsDropped) {
  Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3000), 3);
  pkt.header.dont_fragment = true;
  EXPECT_TRUE(fragment_packet(pkt, kDefaultMtu).empty());
}

TEST(Fragmentation, PayloadBytesPreservedInOrder) {
  const auto payload = pattern(5000);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 4);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  std::vector<std::uint8_t> reassembled;
  for (const auto& f : frags)
    reassembled.insert(reassembled.end(), f.payload.begin(), f.payload.end());
  EXPECT_EQ(reassembled, pkt.payload);
}

TEST(Reassembler, UnfragmentedPassThrough) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(100), 5);
  const auto out = r.offer(pkt, SimTime::zero());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, pkt.payload);
  EXPECT_EQ(r.stats().unfragmented_received, 1u);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(Reassembler, InOrderFragmentsReassemble) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 6);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_GT(frags.size(), 1u);

  for (std::size_t i = 0; i + 1 < frags.size(); ++i)
    EXPECT_FALSE(r.offer(frags[i], SimTime::zero()).has_value());
  const auto whole = r.offer(frags.back(), SimTime::zero());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
  EXPECT_EQ(whole->header.identification, pkt.header.identification);
  EXPECT_FALSE(whole->header.is_fragment());
  EXPECT_EQ(whole->header.total_length, pkt.header.total_length);
  EXPECT_EQ(r.stats().datagrams_delivered, 1u);
}

TEST(Reassembler, OutOfOrderFragmentsReassemble) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Reassembler r;
    const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(6000),
                                           static_cast<std::uint16_t>(trial));
    auto frags = fragment_packet(pkt, kDefaultMtu);
    rng.shuffle(std::span(frags));

    std::optional<Ipv4Packet> whole;
    for (const auto& f : frags) {
      auto out = r.offer(f, SimTime::zero());
      if (out) {
        EXPECT_FALSE(whole.has_value()) << "delivered twice";
        whole = out;
      }
    }
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->payload, pkt.payload);
  }
}

TEST(Reassembler, InterleavedDatagramsKeptSeparate) {
  Reassembler r;
  const Ipv4Packet a = make_udp_packet(kServer, kClient, pattern(3000), 100);
  const Ipv4Packet b = make_udp_packet(kServer, kClient, pattern(3000), 101);
  const auto fa = fragment_packet(a, kDefaultMtu);
  const auto fb = fragment_packet(b, kDefaultMtu);

  // Interleave: a0 b0 a1 b1 a2 b2 ...
  std::optional<Ipv4Packet> got_a, got_b;
  for (std::size_t i = 0; i < std::max(fa.size(), fb.size()); ++i) {
    if (i < fa.size())
      if (auto out = r.offer(fa[i], SimTime::zero())) got_a = out;
    if (i < fb.size())
      if (auto out = r.offer(fb[i], SimTime::zero())) got_b = out;
  }
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_a->header.identification, 100);
  EXPECT_EQ(got_b->header.identification, 101);
}

TEST(Reassembler, MissingFragmentNeverDelivers) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 7);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_GE(frags.size(), 3u);
  // Drop the middle fragment.
  EXPECT_FALSE(r.offer(frags.front(), SimTime::zero()).has_value());
  EXPECT_FALSE(r.offer(frags.back(), SimTime::zero()).has_value());
  EXPECT_EQ(r.pending(), 1u);
}

TEST(Reassembler, TimeoutExpiresPartialAndCountsWaste) {
  Reassembler r(Duration::seconds(30));
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 8);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  r.offer(frags[0], SimTime::zero());
  r.offer(frags[1], SimTime::zero());

  r.expire(SimTime::from_seconds(10));
  EXPECT_EQ(r.pending(), 1u);  // not yet

  r.expire(SimTime::from_seconds(31));
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.stats().datagrams_expired, 1u);
  // Both received fragments were wasted bandwidth — the congestion-collapse
  // hazard of Section 3.C.
  EXPECT_EQ(r.stats().fragments_wasted, 2u);
}

TEST(Reassembler, DuplicateFragmentIsIdempotent) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3000), 9);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  r.offer(frags[0], SimTime::zero());
  r.offer(frags[0], SimTime::zero());  // duplicate
  r.offer(frags[1], SimTime::zero());
  const auto whole = r.offer(frags[2], SimTime::zero());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
}

/// A hand-built fragment of datagram `id`: `len` copies of `fill` at byte
/// offset `off` (a multiple of 8).
Ipv4Packet fragment_of(std::uint16_t id, std::size_t off, std::size_t len, std::uint8_t fill,
                       bool more) {
  Ipv4Packet p;
  p.header.protocol = kIpProtoUdp;
  p.header.identification = id;
  p.header.src = kServer.ip;
  p.header.dst = kClient.ip;
  p.header.fragment_offset_units = static_cast<std::uint16_t>(off / 8);
  p.header.more_fragments = more;
  p.payload = Buffer::copy_of(std::vector<std::uint8_t>(len, fill));
  p.header.total_length = static_cast<std::uint16_t>(p.total_length());
  return p;
}

std::vector<std::uint8_t> runs(std::initializer_list<std::pair<std::size_t, std::uint8_t>> rs) {
  std::vector<std::uint8_t> out;
  for (const auto& [n, b] : rs) out.insert(out.end(), n, b);
  return out;
}

TEST(Reassembler, OverlapLaterArrivalWins) {
  {
    Reassembler r;
    EXPECT_FALSE(r.offer(fragment_of(1, 0, 40, 0xAA, true), SimTime::zero()));
    const auto whole = r.offer(fragment_of(1, 24, 40, 0xBB, false), SimTime::zero());
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->payload, runs({{24, 0xAA}, {40, 0xBB}}));
    EXPECT_EQ(whole->header.total_length, kIpv4HeaderSize + 64);
  }
  {
    Reassembler r;
    EXPECT_FALSE(r.offer(fragment_of(1, 24, 40, 0xBB, false), SimTime::zero()));
    const auto whole = r.offer(fragment_of(1, 0, 40, 0xAA, true), SimTime::zero());
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->payload, runs({{40, 0xAA}, {24, 0xBB}}));
  }
  {
    // A late fragment bridging a hole overwrites both of its neighbours.
    Reassembler r;
    EXPECT_FALSE(r.offer(fragment_of(1, 0, 16, 0xAA, true), SimTime::zero()));
    EXPECT_FALSE(r.offer(fragment_of(1, 32, 16, 0xCC, false), SimTime::zero()));
    EXPECT_FALSE(r.offer(fragment_of(1, 0, 8, 0x11, true), SimTime::zero()));
    const auto whole = r.offer(fragment_of(1, 8, 32, 0xBB, true), SimTime::zero());
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->payload, runs({{8, 0x11}, {32, 0xBB}, {8, 0xCC}}));
    EXPECT_EQ(r.stats().fragments_received, 4u);
  }
}

TEST(Reassembler, FragmentPastTheFinalEndBlocksCompletion) {
  // The datagram ends at 32 by its last fragment, but a fragment reaching
  // byte 48 arrived too: the parts disagree, so nothing is delivered.
  Reassembler r;
  EXPECT_FALSE(r.offer(fragment_of(2, 16, 32, 0xBB, true), SimTime::zero()));
  EXPECT_FALSE(r.offer(fragment_of(2, 16, 16, 0xCC, false), SimTime::zero()));
  EXPECT_FALSE(r.offer(fragment_of(2, 0, 16, 0xAA, true), SimTime::zero()));
  EXPECT_EQ(r.pending(), 1u);
  EXPECT_EQ(r.stats().datagrams_delivered, 0u);
}

TEST(Reassembler, DuplicateLastFragment) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 12);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_FALSE(r.offer(frags[0], SimTime::zero()));
  EXPECT_FALSE(r.offer(frags[2], SimTime::zero()));
  EXPECT_FALSE(r.offer(frags[2], SimTime::zero()));
  const auto whole = r.offer(frags[1], SimTime::zero());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
  EXPECT_EQ(r.stats().fragments_received, 4u);
  EXPECT_EQ(r.pending(), 0u);
  // A straggling copy after delivery opens a fresh partial that never
  // completes; it expires like any other and counts as waste.
  EXPECT_FALSE(r.offer(frags[2], SimTime::from_seconds(1)));
  EXPECT_EQ(r.pending(), 1u);
  r.expire(SimTime::from_seconds(40));
  EXPECT_EQ(r.stats().datagrams_expired, 1u);
  EXPECT_EQ(r.stats().fragments_wasted, 1u);
  EXPECT_EQ(r.stats().datagrams_delivered, 1u);
}

TEST(Reassembler, HoleNeverDeliversAndExpiresWithAllItsFragments) {
  Reassembler r(Duration::seconds(30));
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(6000), 13);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 5u);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    if (i == 2) continue;  // the hole
    EXPECT_FALSE(r.offer(frags[i], SimTime::from_seconds(static_cast<double>(i))));
  }
  EXPECT_FALSE(r.offer(frags[4], SimTime::from_seconds(5)));  // duplicate counts too
  r.expire(SimTime::from_seconds(30));  // exactly the timeout: kept
  EXPECT_EQ(r.pending(), 1u);
  r.expire(SimTime::from_seconds(30.001));
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.stats().datagrams_expired, 1u);
  EXPECT_EQ(r.stats().fragments_wasted, 5u);
  EXPECT_EQ(r.stats().datagrams_delivered, 0u);
}

TEST(Reassembler, InterleavedIdsOutOfOrder) {
  Rng rng(91);
  Reassembler r;
  std::vector<Ipv4Packet> originals;
  std::vector<Ipv4Packet> frags;
  for (std::uint16_t id = 200; id < 206; ++id) {
    originals.push_back(make_udp_packet(kServer, kClient, pattern(1000 + id * 37u), id));
    for (auto& f : fragment_packet(originals.back(), kDefaultMtu)) frags.push_back(f);
  }
  rng.shuffle(std::span(frags));
  std::map<std::uint16_t, int> delivered;
  for (const auto& f : frags) {
    if (auto whole = r.offer(f, SimTime::zero())) {
      const std::uint16_t id = whole->header.identification;
      ++delivered[id];
      EXPECT_EQ(whole->payload, originals[id - 200u].payload) << id;
      EXPECT_EQ(whole->header.total_length, originals[id - 200u].header.total_length);
    }
  }
  EXPECT_EQ(delivered.size(), originals.size());
  for (const auto& [id, n] : delivered) EXPECT_EQ(n, 1) << id;
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.stats().fragments_received, frags.size());
}

// Property sweep: every payload size reassembles to the original bytes.
class FragmentReassembleRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentReassembleRoundTrip, RoundTrips) {
  const std::size_t payload_size = GetParam();
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(payload_size), 99);
  const auto frags = fragment_packet(pkt, kDefaultMtu);

  const std::size_t expected_fragments =
      (pkt.payload.size() + 1479) / 1480;  // 1480-byte fragment payloads
  EXPECT_EQ(frags.size(), std::max<std::size_t>(1, expected_fragments));

  std::optional<Ipv4Packet> whole;
  for (const auto& f : frags) {
    EXPECT_LE(f.total_length(), kDefaultMtu);
    if (auto out = r.offer(f, SimTime::zero())) whole = out;
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, FragmentReassembleRoundTrip,
                         ::testing::Values(1, 100, 1471, 1472, 1473, 1480, 2000, 2952,
                                           2953, 3125, 4096, 9137, 20000, 65000));

}  // namespace
}  // namespace streamlab
