#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "json_check.hpp"
#include "util/strings.hpp"

namespace streamlab::obs {
namespace {

std::vector<TraceRecord> records_of(const Tracer& tracer) {
  std::vector<TraceRecord> out;
  tracer.for_each([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

TEST(Trace, InternIsStableAndZeroIsEmpty) {
  Tracer tracer;
  EXPECT_EQ(tracer.intern(""), 0);
  const std::uint16_t a = tracer.intern("alpha");
  const std::uint16_t b = tracer.intern("beta");
  EXPECT_NE(a, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.intern("alpha"), a);
  EXPECT_EQ(tracer.string(a), "alpha");
  EXPECT_EQ(tracer.string(0), "");
}

TEST(Trace, InstantRecordsNameTrackTimeValue) {
  Tracer tracer;
  const std::uint16_t name = tracer.intern("play-retry");
  const std::uint16_t track = tracer.intern("player.real");
  tracer.instant(name, track, SimTime::from_seconds(1.5), 2.0);
  const auto recs = records_of(tracer);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, RecordKind::kInstant);
  EXPECT_EQ(recs[0].name, name);
  EXPECT_EQ(recs[0].track, track);
  EXPECT_EQ(recs[0].time.to_seconds(), 1.5);
  EXPECT_EQ(recs[0].value, 2.0);
}

TEST(Trace, SpansPairBeginAndEndById) {
  Tracer tracer;
  const std::uint16_t name = tracer.intern("fault:outage");
  const std::uint16_t track = tracer.intern("faults");
  const std::uint64_t id = tracer.begin_span(name, track, SimTime::from_seconds(30.0));
  EXPECT_NE(id, 0u);
  tracer.end_span(id, SimTime::from_seconds(34.0));
  tracer.end_span(id, SimTime::from_seconds(35.0));   // double close: ignored
  tracer.end_span(999, SimTime::from_seconds(36.0));  // unknown id: ignored
  const auto recs = records_of(tracer);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, RecordKind::kSpanBegin);
  EXPECT_EQ(recs[1].kind, RecordKind::kSpanEnd);
  EXPECT_EQ(recs[0].span_id, id);
  EXPECT_EQ(recs[1].span_id, id);
  EXPECT_EQ(recs[1].name, name);
  EXPECT_EQ(recs[1].track, track);
}

TEST(Trace, SampleIsRateLimitedPerName) {
  Tracer::Config cfg;
  cfg.sample_interval = Duration::millis(100);
  Tracer tracer(cfg);
  const std::uint16_t q = tracer.intern("queue");
  const std::uint16_t other = tracer.intern("other");
  EXPECT_TRUE(tracer.sample(q, SimTime::from_seconds(0.0), 1.0));
  EXPECT_FALSE(tracer.sample(q, SimTime::from_seconds(0.05), 2.0));  // inside window
  EXPECT_TRUE(tracer.sample(other, SimTime::from_seconds(0.05), 9.0));  // own window
  EXPECT_TRUE(tracer.sample(q, SimTime::from_seconds(0.1), 3.0));
  tracer.sample_always(q, SimTime::from_seconds(0.10001), 4.0);  // bypasses the limit
  EXPECT_EQ(records_of(tracer).size(), 4u);
}

TEST(Trace, RingOverwritesOldestAndCountsDropped) {
  Tracer::Config cfg;
  cfg.capacity = 4;
  Tracer tracer(cfg);
  const std::uint16_t name = tracer.intern("tick");
  for (int i = 0; i < 6; ++i)
    tracer.instant(name, 0, SimTime(i * 1000), static_cast<double>(i));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto recs = records_of(tracer);
  ASSERT_EQ(recs.size(), 4u);
  // Oldest-first and the two oldest records gone.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recs[static_cast<std::size_t>(i)].value, i + 2.0);
}

TEST(Trace, DroppedCounterMirrorsRingOverflow) {
  Registry registry;
  Tracer::Config cfg;
  cfg.capacity = 4;
  Tracer tracer(cfg);
  tracer.set_dropped_counter(registry.counter("trace.records_dropped"));
  const std::uint16_t name = tracer.intern("tick");
  for (int i = 0; i < 4; ++i) tracer.instant(name, 0, SimTime(i), 0.0);
  EXPECT_EQ(registry.counter("trace.records_dropped").value(), 0u);  // ring just full
  for (int i = 0; i < 3; ++i) tracer.instant(name, 0, SimTime(i), 0.0);
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(registry.counter("trace.records_dropped").value(), 3u);
}

TEST(Trace, LastReturnsTailOldestFirst) {
  Tracer::Config cfg;
  cfg.capacity = 4;
  Tracer tracer(cfg);
  const std::uint16_t name = tracer.intern("tick");
  for (int i = 0; i < 6; ++i)
    tracer.instant(name, 0, SimTime(i * 1000), static_cast<double>(i));
  const auto tail = tracer.last(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].value, 4.0);
  EXPECT_EQ(tail[1].value, 5.0);
  // Asking for more than retained returns everything retained.
  EXPECT_EQ(tracer.last(100).size(), 4u);
}

TEST(Trace, ObsWiresDroppedCounterIntoRegistry) {
  Obs::Config cfg;
  cfg.trace_capacity = 2;
  Obs obs(cfg);
  const std::uint16_t name = obs.tracer().intern("tick");
  for (int i = 0; i < 5; ++i) obs.tracer().instant(name, 0, SimTime(i), 0.0);
  EXPECT_EQ(obs.registry().counter("trace.records_dropped").value(), 3u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer::Config cfg;
  cfg.enabled = false;
  Tracer tracer(cfg);
  const std::uint16_t name = tracer.intern("x");
  tracer.instant(name, 0, SimTime::zero());
  EXPECT_EQ(tracer.begin_span(name, 0, SimTime::zero()), 0u);
  tracer.sample_always(name, SimTime::zero(), 1.0);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TraceExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01", 2)), "a\\u0001");
}

Obs& populated_obs() {
  static Obs obs;
  static const bool init = [] {
    obs.registry().counter("demo.count").add(7);
    obs.registry().gauge("demo.level").set(-3);
    obs.registry().histogram("demo.hist", 5.0, 2).record(6.0);
    Tracer& t = obs.tracer();
    const std::uint16_t track = t.intern("demo \"track\"");
    const std::uint16_t span_name = t.intern("fault:outage:short");
    const std::uint16_t inst = t.intern("play-retry");
    const std::uint16_t q = t.intern("queue_bytes");
    const std::uint64_t span = t.begin_span(span_name, track, SimTime::from_seconds(1.0));
    t.instant(inst, track, SimTime::from_seconds(1.5), 2.0);
    t.sample_always(q, SimTime::from_seconds(1.6), 512.0);
    t.sample_always(q, SimTime::from_seconds(2.5), 0.0);
    t.end_span(span, SimTime::from_seconds(3.0));
    return true;
  }();
  (void)init;
  return obs;
}

TEST(TraceExport, ChromeTraceIsValidJsonWithExpectedEvents) {
  std::ostringstream out;
  write_chrome_trace(populated_obs(), out);
  const std::string json = out.str();
  EXPECT_EQ(testjson::json_validate(json), "") << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("fault:outage:short"), std::string::npos);
  // The quote in the track name must arrive escaped.
  EXPECT_NE(json.find("demo \\\"track\\\""), std::string::npos);
  // Ring-truncation honesty header: retained + dropped counts up front.
  EXPECT_NE(json.find("\"traceRetained\":5"), std::string::npos);
  EXPECT_NE(json.find("\"traceDropped\":0"), std::string::npos);
}

TEST(TraceExport, NdjsonLinesAreEachValidJson) {
  std::ostringstream out;
  write_ndjson(populated_obs(), out);
  std::size_t lines = 0;
  for (const auto& line : split(out.str(), '\n')) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(testjson::json_validate(line), "") << line;
  }
  EXPECT_EQ(lines, 6u);  // header + span begin + instant + 2 samples + span end
  // First line is the truncation-honesty header.
  EXPECT_EQ(out.str().rfind("{\"header\":\"streamlab-trace-v1\",\"records\":5,\"dropped\":0}", 0), 0u);
}

TEST(TraceExport, TimeseriesCsvRoundTripsMonotone) {
  std::ostringstream out;
  write_timeseries_csv(populated_obs(), out);
  const auto lines = split(out.str(), '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "time_s,metric,value");
  double prev = -1.0;
  std::size_t rows = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = split(lines[i], ',');
    ASSERT_EQ(fields.size(), 3u) << lines[i];
    const double t = std::stod(fields[0]);
    EXPECT_GE(t, prev) << "timestamps must be monotone non-decreasing";
    prev = t;
    ++rows;
  }
  EXPECT_EQ(rows, 2u);  // only the counter samples
  // Round-trip the sampled values.
  EXPECT_DOUBLE_EQ(std::stod(split(lines[1], ',')[2]), 512.0);
  EXPECT_EQ(split(lines[1], ',')[1], "queue_bytes");
}

TEST(TraceExport, MetricsCsvSnapshotsEveryKind) {
  std::ostringstream out;
  write_metrics_csv(populated_obs(), out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("kind,name,arg,value"), 0u);
  EXPECT_NE(csv.find("counter,demo.count,,7"), std::string::npos);
  EXPECT_NE(csv.find("gauge,demo.level,,-3"), std::string::npos);
  EXPECT_NE(csv.find("histogram_bucket,demo.hist"), std::string::npos);
  EXPECT_NE(csv.find("histogram_total,demo.hist,,1"), std::string::npos);
}

}  // namespace
}  // namespace streamlab::obs
