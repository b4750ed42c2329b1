#include "core/study.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/jobs.hpp"
#include "media/catalog.hpp"

namespace streamlab {
namespace {

// A study holding one pair's clip identities; find() only reads those, so no
// simulation has to run.
StudyResults set1_low_study() {
  const auto pair = table1_catalog()[0].pair(RateTier::kLow);
  StudyResults study;
  study.runs.emplace_back();
  study.runs.back().real.clip = pair->first;
  study.runs.back().media.clip = pair->second;
  return study;
}

TEST(StudyFind, KnownIdReturnsThatClip) {
  const StudyResults study = set1_low_study();
  EXPECT_EQ(study.find("set1/R-l"), &study.runs[0].real);
  EXPECT_EQ(study.find("set1/M-l"), &study.runs[0].media);
}

TEST(StudyFind, AbsentIdReturnsNull) {
  const StudyResults study = set1_low_study();
  EXPECT_EQ(study.find("set5/R-h"), nullptr);  // in the catalog, not in this study
  EXPECT_EQ(study.find("set1/M-x"), nullptr);
  EXPECT_EQ(study.find(""), nullptr);
  EXPECT_EQ(StudyResults{}.find("set1/R-l"), nullptr);
}

void expect_same_clip(const ClipRunResult& a, const ClipRunResult& b) {
  SCOPED_TRACE(a.clip.id());
  EXPECT_EQ(a.clip, b.clip);
  const TrackerReport& t = a.tracker;
  const TrackerReport& u = b.tracker;
  EXPECT_EQ(t.clip_id, u.clip_id);
  EXPECT_EQ(t.player, u.player);
  EXPECT_EQ(t.transport, u.transport);
  EXPECT_EQ(t.encoded_rate, u.encoded_rate);
  EXPECT_EQ(t.clip_length, u.clip_length);
  ASSERT_EQ(t.samples.size(), u.samples.size());
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    const TrackerSample& s = t.samples[i];
    const TrackerSample& r = u.samples[i];
    ASSERT_EQ(s.time, r.time) << i;
    ASSERT_EQ(s.frame_rate_fps, r.frame_rate_fps) << i;
    ASSERT_EQ(s.playback_bandwidth, r.playback_bandwidth) << i;
    ASSERT_EQ(s.packets_received, r.packets_received) << i;
    ASSERT_EQ(s.packets_lost, r.packets_lost) << i;
    ASSERT_EQ(s.packets_recovered, r.packets_recovered) << i;
    ASSERT_EQ(s.buffering, r.buffering) << i;
  }
  EXPECT_EQ(t.average_playback_bandwidth, u.average_playback_bandwidth);
  EXPECT_EQ(t.average_frame_rate, u.average_frame_rate);
  EXPECT_EQ(t.total_packets, u.total_packets);
  EXPECT_EQ(t.total_lost, u.total_lost);
  EXPECT_EQ(t.total_recovered, u.total_recovered);
  EXPECT_EQ(t.frames_rendered, u.frames_rendered);
  EXPECT_EQ(t.frames_dropped, u.frames_dropped);
  EXPECT_EQ(t.startup_delay, u.startup_delay);
  EXPECT_EQ(t.streaming_duration, u.streaming_duration);

  ASSERT_EQ(a.flow.size(), b.flow.size());
  for (std::size_t i = 0; i < a.flow.size(); ++i) {
    const FlowPacket& p = a.flow.packets()[i];
    const FlowPacket& q = b.flow.packets()[i];
    ASSERT_EQ(p.time, q.time) << i;
    ASSERT_EQ(p.wire_length, q.wire_length) << i;
    ASSERT_EQ(p.trailing_fragment, q.trailing_fragment) << i;
    ASSERT_EQ(p.first_of_group, q.first_of_group) << i;
    ASSERT_EQ(p.ip_id, q.ip_id) << i;
  }
  EXPECT_EQ(a.buffering.has_buffering_phase, b.buffering.has_buffering_phase);
  EXPECT_EQ(a.buffering.buffering_duration, b.buffering.buffering_duration);
  EXPECT_EQ(a.buffering.buffering_rate_kbps, b.buffering.buffering_rate_kbps);
  EXPECT_EQ(a.buffering.steady_rate_kbps, b.buffering.steady_rate_kbps);
  ASSERT_EQ(a.app_packets.size(), b.app_packets.size());
  for (std::size_t i = 0; i < a.app_packets.size(); ++i) {
    const PacketEvent& e = a.app_packets[i];
    const PacketEvent& f = b.app_packets[i];
    ASSERT_EQ(e.network_time, f.network_time) << i;
    ASSERT_EQ(e.app_time, f.app_time) << i;
    ASSERT_EQ(e.seq, f.seq) << i;
    ASSERT_EQ(e.media_offset, f.media_offset) << i;
    ASSERT_EQ(e.media_len, f.media_len) << i;
    ASSERT_EQ(e.flags, f.flags) << i;
  }
  EXPECT_EQ(a.server_streaming_duration, b.server_streaming_duration);
}

TEST(Study, PoolRunEqualsSerialLoop) {
  // run_study_subset runs its pairs side by side on the job pool. Called
  // from inside a job, the pool has one runner (job_workers reads 1), so the
  // same call runs the pairs one after another on this thread. Every pair
  // must come out the same, field for field, kept capture included.
  StudyConfig config;
  config.keep_captures = true;
  const StudyResults pooled = run_study_subset(config, {2, 3});
  StudyResults serial;
  run_jobs(
      1, /*workers=*/0,
      [&](std::size_t, std::size_t) { serial = run_study_subset(config, {2, 3}); },
      [](std::size_t) {});

  // Pair k of the catalog order lands in runs[k].
  const char* const kRealIds[] = {"set2/R-l", "set2/R-h", "set3/R-l", "set3/R-h"};
  ASSERT_EQ(pooled.runs.size(), std::size(kRealIds));
  ASSERT_EQ(serial.runs.size(), pooled.runs.size());
  for (std::size_t k = 0; k < pooled.runs.size(); ++k) {
    SCOPED_TRACE(k);
    const PairRunResult& p = pooled.runs[k];
    const PairRunResult& s = serial.runs[k];
    EXPECT_EQ(p.real.clip.id(), kRealIds[k]);
    EXPECT_EQ(p.real.tracker.clip_id, kRealIds[k]);
    expect_same_clip(p.real, s.real);
    expect_same_clip(p.media, s.media);
    EXPECT_EQ(p.ping.sent, s.ping.sent);
    EXPECT_EQ(p.ping.received, s.ping.received);
    EXPECT_EQ(p.ping.unreachable, s.ping.unreachable);
    EXPECT_EQ(p.ping.rtts, s.ping.rtts);
    ASSERT_EQ(p.route.hops.size(), s.route.hops.size());
    for (std::size_t h = 0; h < p.route.hops.size(); ++h) {
      ASSERT_EQ(p.route.hops[h].ttl, s.route.hops[h].ttl) << h;
      ASSERT_EQ(p.route.hops[h].address, s.route.hops[h].address) << h;
      ASSERT_EQ(p.route.hops[h].rtt, s.route.hops[h].rtt) << h;
    }
    EXPECT_EQ(p.route.reached, s.route.reached);

    // The pair's one capture travels with the Real result.
    ASSERT_TRUE(p.real.capture && s.real.capture);
    const CaptureTrace& pr = *p.real.capture;
    const CaptureTrace& sr = *s.real.capture;
    EXPECT_EQ(p.real.capture->snaplen(), s.real.capture->snaplen());
    ASSERT_EQ(pr.size(), sr.size());
    ASSERT_FALSE(pr.empty());
    for (std::size_t i = 0; i < pr.size(); ++i) {
      ASSERT_EQ(pr[i].timestamp, sr[i].timestamp) << i;
      ASSERT_EQ(pr[i].original_length, sr[i].original_length) << i;
      ASSERT_TRUE(std::ranges::equal(pr[i].data, sr[i].data)) << i;
    }
  }
}

}  // namespace
}  // namespace streamlab
