// Loss repair layer unit tests: the FEC encoder/decoder pair (including
// interleaving and partial-row flush), the parity wire format, the NACK
// retry state machine with its PID+BLP packing, the bounded retransmission
// ring and the token-bucket pacer.
#include "players/repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "players/protocol.hpp"

namespace streamlab {
namespace {

// --- FEC encoder ---

TEST(FecEncoder, ParityCarriesXorOfHeaderFields) {
  FecBlockEncoder enc(/*k=*/4, /*stride=*/1);
  std::vector<ParityOut> out;
  // Four packets, distinct offsets/lengths; the last carries a flag.
  const std::uint64_t offsets[] = {0, 500, 1000, 1500};
  const std::uint32_t lens[] = {500, 500, 480, 520};
  const std::uint8_t flags[] = {0, 0, 0, kFlagEndOfStream};
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    auto rows = enc.feed(seq, offsets[seq], lens[seq], flags[seq]);
    if (seq < 3) {
      EXPECT_TRUE(rows.empty());
    } else {
      ASSERT_EQ(rows.size(), 1u);
      out = std::move(rows);
    }
  }
  const ParityHeader& h = out[0].header;
  EXPECT_EQ(h.k, 4);
  EXPECT_EQ(h.stride, 1);
  EXPECT_EQ(h.block_base, 0u);
  EXPECT_EQ(h.xor_media_offset, 0ull ^ 500ull ^ 1000ull ^ 1500ull);
  EXPECT_EQ(h.xor_media_len, 500u ^ 500u ^ 480u ^ 520u);
  EXPECT_EQ(h.xor_flags, kFlagEndOfStream);
  // Honest bandwidth: the parity pad equals the longest covered payload.
  EXPECT_EQ(out[0].pad_len, 520u);
}

TEST(FecEncoder, FlushClosesPartialRowsWithReducedK) {
  FecBlockEncoder enc(/*k=*/4, /*stride=*/1);
  EXPECT_TRUE(enc.feed(0, 0, 500, 0).empty());
  EXPECT_TRUE(enc.feed(1, 500, 500, 0).empty());
  auto rows = enc.flush();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].header.k, 2);  // only two packets actually covered
  EXPECT_EQ(rows[0].header.block_base, 0u);
  // A second flush finds nothing left.
  EXPECT_TRUE(enc.flush().empty());
}

// --- FEC round trips ---

TEST(FecRoundTrip, RecoversSingleErasure) {
  FecBlockEncoder enc(4, 1);
  std::vector<ParityOut> parity;
  for (std::uint32_t seq = 0; seq < 4; ++seq)
    for (auto& p : enc.feed(seq, seq * 500ull, 500, 0)) parity.push_back(p);
  ASSERT_EQ(parity.size(), 1u);

  FecDecoder dec(4, 1);
  EXPECT_FALSE(dec.on_data(0, 0, 500, 0).has_value());
  // seq 1 lost.
  EXPECT_FALSE(dec.on_data(2, 1000, 500, 0).has_value());
  EXPECT_FALSE(dec.on_data(3, 1500, 500, 0).has_value());
  auto rec = dec.on_parity(parity[0].header);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->seq, 1u);
  EXPECT_EQ(rec->media_offset, 500ull);
  EXPECT_EQ(rec->media_len, 500u);
  EXPECT_EQ(rec->flags, 0);
  EXPECT_EQ(dec.pending_rows(), 0u);  // completed row state is released
}

TEST(FecRoundTrip, ParityBeforeLastDataStillRecovers) {
  FecBlockEncoder enc(3, 1);
  std::vector<ParityOut> parity;
  for (std::uint32_t seq = 0; seq < 3; ++seq)
    for (auto& p : enc.feed(seq, seq * 100ull, 100, 0)) parity.push_back(p);
  ASSERT_EQ(parity.size(), 1u);

  FecDecoder dec(3, 1);
  EXPECT_FALSE(dec.on_parity(parity[0].header).has_value());
  EXPECT_FALSE(dec.on_data(0, 0, 100, 0).has_value());
  auto rec = dec.on_data(2, 200, 100, 0);  // now only seq 1 is missing
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->seq, 1u);
  EXPECT_EQ(rec->media_offset, 100ull);
}

TEST(FecRoundTrip, InterleavingSpreadsBurstOneLossPerRow) {
  // k=3, stride=4: a matrix covers 12 consecutive sequences in 4 rows
  // {0,4,8} {1,5,9} {2,6,10} {3,7,11}. A burst of 4 consecutive losses
  // (4..7) puts exactly one hole in each row — all four recoverable.
  const int k = 3, stride = 4;
  FecBlockEncoder enc(k, stride);
  std::vector<ParityOut> parity;
  for (std::uint32_t seq = 0; seq < 12; ++seq)
    for (auto& p : enc.feed(seq, seq * 200ull, 200, 0)) parity.push_back(p);
  ASSERT_EQ(parity.size(), 4u);

  FecDecoder dec(k, stride);
  std::vector<std::uint32_t> recovered;
  for (std::uint32_t seq = 0; seq < 12; ++seq) {
    if (seq >= 4 && seq <= 7) continue;  // the burst
    if (auto rec = dec.on_data(seq, seq * 200ull, 200, 0)) recovered.push_back(rec->seq);
  }
  for (const auto& p : parity)
    if (auto rec = dec.on_parity(p.header)) recovered.push_back(rec->seq);
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, (std::vector<std::uint32_t>{4, 5, 6, 7}));
}

TEST(FecRoundTrip, TwoLossesInOneRowAreUnrecoverable) {
  FecBlockEncoder enc(4, 1);
  std::vector<ParityOut> parity;
  for (std::uint32_t seq = 0; seq < 4; ++seq)
    for (auto& p : enc.feed(seq, seq * 100ull, 100, 0)) parity.push_back(p);

  FecDecoder dec(4, 1);
  dec.on_data(0, 0, 100, 0);
  dec.on_data(3, 300, 100, 0);  // seqs 1 and 2 both lost
  EXPECT_FALSE(dec.on_parity(parity[0].header).has_value());
  EXPECT_EQ(dec.pending_rows(), 1u);  // row stays parked, still short two
}

TEST(FecRoundTrip, FlushedSingletonRowActsAsReplication) {
  // A k=1 tail row: the parity alone carries the whole description, so the
  // decoder reconstructs the packet with no data arrivals at all.
  FecBlockEncoder enc(4, 1);
  enc.feed(8, 4000, 512, kFlagEndOfStream);
  auto rows = enc.flush();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].header.k, 1);

  FecDecoder dec(4, 1);
  auto rec = dec.on_parity(rows[0].header);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->seq, 8u);
  EXPECT_EQ(rec->media_offset, 4000ull);
  EXPECT_EQ(rec->media_len, 512u);
  EXPECT_EQ(rec->flags, kFlagEndOfStream);
}

TEST(FecDecoder, ResetDropsRowState) {
  FecDecoder dec(4, 1);
  dec.on_data(0, 0, 100, 0);
  EXPECT_EQ(dec.pending_rows(), 1u);
  dec.reset();
  EXPECT_EQ(dec.pending_rows(), 0u);
}

// --- Parity wire format ---

TEST(ParityHeader, PacketRoundTripsAndPaysPadBandwidth) {
  ParityHeader h;
  h.k = 8;
  h.stride = 4;
  h.block_base = 96;
  h.xor_media_offset = 0x0123456789ABCDEFull;
  h.xor_media_len = 0xDEADBEEF;
  h.xor_flags = kFlagEndOfStream | kFlagBufferingPhase;
  const auto bytes = ParityHeader::make_packet(h, /*pad_len=*/700);
  EXPECT_EQ(bytes.size(), kParityHeaderSize + 700u);

  auto decoded = ParityHeader::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->k, h.k);
  EXPECT_EQ(decoded->stride, h.stride);
  EXPECT_EQ(decoded->block_base, h.block_base);
  EXPECT_EQ(decoded->xor_media_offset, h.xor_media_offset);
  EXPECT_EQ(decoded->xor_media_len, h.xor_media_len);
  EXPECT_EQ(decoded->xor_flags, h.xor_flags);
}

TEST(ParityHeader, DecodeRejectsDataAndControlPackets) {
  DataHeader data;
  data.seq = 1;
  EXPECT_FALSE(ParityHeader::decode(DataHeader::make_packet(data, 100)).has_value());
  ControlMessage msg;
  msg.clip_id = "set1/M-l";
  EXPECT_FALSE(ParityHeader::decode(msg.encode()).has_value());
  EXPECT_FALSE(ParityHeader::decode(std::vector<std::uint8_t>{0x50}).has_value());
}

// --- NACK tracker ---

RepairLayerConfig nack_config() {
  RepairLayerConfig cfg;
  cfg.nack = true;
  cfg.nack_rtt_multiplier = 1.5;
  cfg.nack_min_delay = Duration::millis(20);
  cfg.nack_max_delay = Duration::millis(500);
  cfg.nack_max_retries = 2;
  return cfg;
}

TEST(NackTracker, DelayIsRttScaledAndClamped) {
  NackTracker t(nack_config());
  t.set_rtt(Duration::millis(100));
  EXPECT_EQ(t.delay().to_millis(), 150.0);  // 1.5 x RTT
  t.set_rtt(Duration::millis(1));
  EXPECT_EQ(t.delay().to_millis(), 20.0);  // clamped to min
  t.set_rtt(Duration::seconds(2));
  EXPECT_EQ(t.delay().to_millis(), 500.0);  // clamped to max
}

TEST(NackTracker, DueBatchesAndReschedulesUntilBudgetExhausted) {
  NackTracker t(nack_config());
  t.set_rtt(Duration::millis(100));  // delay = 150 ms
  const SimTime t0 = SimTime::from_seconds(1.0);
  t.note_missing(7, t0);
  t.note_missing(5, t0);
  ASSERT_TRUE(t.next_deadline().has_value());
  EXPECT_EQ((*t.next_deadline() - t0).to_millis(), 150.0);

  // Before the deadline nothing is due.
  EXPECT_TRUE(t.due(t0 + Duration::millis(100)).empty());
  // At the deadline both fire, sorted ascending, and get rescheduled.
  const SimTime first = t0 + Duration::millis(150);
  EXPECT_EQ(t.due(first), (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(t.pending(), 2u);
  // Second (and last budgeted) retry.
  const SimTime second = first + Duration::millis(150);
  EXPECT_EQ(t.due(second), (std::vector<std::uint32_t>{5, 7}));
  // Budget exhausted: the third wakeup abandons both instead of returning.
  const SimTime third = second + Duration::millis(150);
  EXPECT_TRUE(t.due(third).empty());
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_EQ(t.abandoned(), 2u);
  EXPECT_FALSE(t.next_deadline().has_value());
}

TEST(NackTracker, ArrivalCancelsPendingRetries) {
  NackTracker t(nack_config());
  const SimTime t0 = SimTime::from_seconds(1.0);
  t.note_missing(5, t0);
  t.note_missing(6, t0);
  t.note_arrival(5);
  EXPECT_EQ(t.pending(), 1u);
  EXPECT_EQ(t.due(t0 + Duration::seconds(1)), (std::vector<std::uint32_t>{6}));
  EXPECT_EQ(t.abandoned(), 0u);
}

// --- PID+BLP packing ---

TEST(NackMessages, PacksSixteenFollowingSeqsIntoBlp) {
  // 10 is the PID; 11 (bit 0), 14 (bit 3) and 26 (bit 15) ride the BLP.
  const auto msgs = make_nack_messages("set1/M-l", {10, 11, 14, 26});
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].type, ControlType::kNack);
  EXPECT_EQ(msgs[0].clip_id, "set1/M-l");
  EXPECT_EQ(msgs[0].offset, 10u);
  EXPECT_EQ(msgs[0].value, (1u << 0) | (1u << 3) | (1u << 15));
  EXPECT_EQ(nack_requested_seqs(msgs[0]), (std::vector<std::uint32_t>{10, 11, 14, 26}));
}

TEST(NackMessages, SplitsWhenSpanExceedsBlpWindow) {
  // 27 falls outside 10's 16-bit window, so it starts a second message.
  const auto msgs = make_nack_messages("c", {10, 27});
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].offset, 10u);
  EXPECT_EQ(msgs[0].value, 0u);
  EXPECT_EQ(msgs[1].offset, 27u);
  EXPECT_EQ(nack_requested_seqs(msgs[0]), (std::vector<std::uint32_t>{10}));
  EXPECT_EQ(nack_requested_seqs(msgs[1]), (std::vector<std::uint32_t>{27}));
}

TEST(NackMessages, ControlRoundTripPreservesPidAndBlp) {
  const auto msgs = make_nack_messages("set1/R-l", {100, 101, 116});
  ASSERT_EQ(msgs.size(), 1u);
  const auto decoded = ControlMessage::decode(msgs[0].encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, ControlType::kNack);
  EXPECT_EQ(nack_requested_seqs(*decoded),
            (std::vector<std::uint32_t>{100, 101, 116}));
}

// --- Retransmit buffer ---

TEST(RetransmitBuffer, KeepsOnlyTheRetainedWindow) {
  RetransmitBuffer buf(4);
  for (std::uint32_t seq = 0; seq < 6; ++seq) buf.store(seq, seq * 100ull, 100, 0);
  // 0 and 1 were overwritten by 4 and 5 (ring of 4 slots).
  EXPECT_FALSE(buf.lookup(0).has_value());
  EXPECT_FALSE(buf.lookup(1).has_value());
  for (std::uint32_t seq = 2; seq < 6; ++seq) {
    auto hit = buf.lookup(seq);
    ASSERT_TRUE(hit.has_value()) << "seq " << seq;
    EXPECT_EQ(hit->seq, seq);
    EXPECT_EQ(hit->media_offset, seq * 100ull);
    EXPECT_EQ(hit->media_len, 100u);
  }
  EXPECT_FALSE(buf.lookup(99).has_value());  // never stored
}

// --- Token-bucket pacer ---

TEST(TokenBucketPacer, RefillsFromSimulatedTime) {
  // 8 kbps = 1000 bytes/s, burst 1000 bytes: starts full.
  TokenBucketPacer pacer(BitRate::kbps(8), 1000);
  const SimTime t0 = SimTime::from_seconds(1.0);
  EXPECT_TRUE(pacer.try_consume(t0, 1000));
  EXPECT_FALSE(pacer.try_consume(t0, 1));  // drained, no time has passed
  // Half a second refills 500 bytes.
  EXPECT_TRUE(pacer.try_consume(t0 + Duration::millis(500), 500));
  EXPECT_FALSE(pacer.try_consume(t0 + Duration::millis(500), 1));
}

TEST(TokenBucketPacer, BurstCapBoundsIdleAccumulation) {
  TokenBucketPacer pacer(BitRate::kbps(8), 1000);
  const SimTime t0 = SimTime::from_seconds(1.0);
  EXPECT_TRUE(pacer.try_consume(t0, 1000));
  // An hour idle still caps at the burst allowance.
  const SimTime later = t0 + Duration::seconds(3600);
  EXPECT_TRUE(pacer.try_consume(later, 1000));
  EXPECT_FALSE(pacer.try_consume(later, 1));
}

}  // namespace
}  // namespace streamlab
