// Adversarial delivery tests for the streaming client: duplicates,
// reordering, overlaps and garbage must never corrupt byte accounting.
#include <gtest/gtest.h>

#include "player_test_util.hpp"

namespace streamlab {
namespace {

StreamClient::Config rm_config() {
  StreamClient::Config cc;
  cc.kind = PlayerKind::kRealPlayer;
  return cc;
}

/// Harness delivering hand-crafted datagrams straight to a client.
struct RawClientHarness {
  EventLoop loop;
  Host client_host{loop, "client", Ipv4Address(10, 0, 0, 2)};
  Host server_host{loop, "server", Ipv4Address(192, 168, 100, 10)};
  EncodedClip clip;
  StreamClient client;

  RawClientHarness()
      : clip(encode_clip(testutil::short_clip(PlayerKind::kRealPlayer, 50, 10), 1)),
        client(client_host, clip, Endpoint{server_host.address(), kRealServerPort},
               rm_config()) {
    // Wire the hosts back-to-back.
    server_host.attach_interface([this](const Ipv4Packet& p) {
      loop.schedule_in(Duration::micros(50), [this, p] { client_host.handle_packet(p, 0); });
    });
    client_host.attach_interface([this](const Ipv4Packet& p) {
      loop.schedule_in(Duration::micros(50), [this, p] { server_host.handle_packet(p, 0); });
    });
  }

  void deliver(std::uint32_t seq, std::uint64_t offset, std::size_t len,
               std::uint8_t flags = 0) {
    DataHeader h;
    h.seq = seq;
    h.media_offset = offset;
    h.flags = flags;
    const auto packet = DataHeader::make_packet(h, len);
    server_host.udp_send(kRealServerPort, Endpoint{client_host.address(), kRealClientPort},
                         packet);
    loop.run();
  }
};

TEST(ClientRobustness, DuplicateDatagramsCountedOnceInCoverage) {
  RawClientHarness h;
  h.deliver(0, 0, 1000);
  h.deliver(0, 0, 1000);  // exact duplicate
  EXPECT_EQ(h.client.media_bytes_received(), 1000u);
  EXPECT_EQ(h.client.stats().packets_received, 2u);  // both packets arrived...
  EXPECT_EQ(h.client.stats().packets_lost, 0u);      // ...and nothing is "lost"
  EXPECT_EQ(h.client.stats().duplicate_packets, 1u);
}

TEST(ClientRobustness, OutOfOrderDeliveryCoversCorrectly) {
  RawClientHarness h;
  h.deliver(1, 1000, 1000);
  h.deliver(0, 0, 1000);
  h.deliver(2, 2000, 500);
  EXPECT_EQ(h.client.media_bytes_received(), 2500u);
  EXPECT_EQ(h.client.stats().packets_lost, 0u);
  EXPECT_EQ(h.client.stats().duplicate_packets, 0u);  // reordering is not duplication
}

TEST(ClientRobustness, OverlappingRangesMergeNotDoubleCount) {
  RawClientHarness h;
  h.deliver(0, 0, 1000);
  h.deliver(1, 500, 1000);  // overlaps [500,1000)
  EXPECT_EQ(h.client.media_bytes_received(), 1500u);
}

TEST(ClientRobustness, GapDetectedAsLoss) {
  RawClientHarness h;
  h.deliver(0, 0, 1000);
  h.deliver(2, 2000, 1000);  // seq 1 missing
  EXPECT_EQ(h.client.stats().packets_lost, 1u);
  EXPECT_EQ(h.client.media_bytes_received(), 2000u);
}

TEST(ClientRobustness, GarbagePayloadIgnored) {
  RawClientHarness h;
  const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  h.server_host.udp_send(kRealServerPort,
                         Endpoint{h.client_host.address(), kRealClientPort}, junk);
  h.loop.run();
  EXPECT_EQ(h.client.stats().packets_received, 0u);
  EXPECT_EQ(h.client.media_bytes_received(), 0u);
}

TEST(ClientRobustness, TruncatedHeaderIgnored) {
  RawClientHarness h;
  // A data-magic prefix but shorter than the header.
  const std::vector<std::uint8_t> stub = {0x44, 0x54, 0x00};
  h.server_host.udp_send(kRealServerPort,
                         Endpoint{h.client_host.address(), kRealClientPort}, stub);
  h.loop.run();
  EXPECT_EQ(h.client.stats().packets_received, 0u);
}

TEST(ClientRobustness, EosWithoutDataStillMarksEnd) {
  RawClientHarness h;
  h.deliver(0, 0, 0, kFlagEndOfStream);
  EXPECT_TRUE(h.client.end_of_stream());
  EXPECT_EQ(h.client.media_bytes_received(), 0u);
}

TEST(ClientRobustness, SeqWindowLossAccountingMonotone) {
  RawClientHarness h;
  // Deliver every other sequence number.
  for (std::uint32_t i = 0; i < 20; i += 2) h.deliver(i, i * 500, 500);
  // max_seq = 18, received 10 -> 9 lost.
  EXPECT_EQ(h.client.stats().packets_lost, 9u);
}

}  // namespace
}  // namespace streamlab
