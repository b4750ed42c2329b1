#include "obs/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "obs/telemetry.hpp"

namespace streamlab::obs {
namespace {

// These aggregates back the campaign's byte-identity contract, so the tests
// assert *serialized bytes*, not just numeric equality: two folds that
// disagree anywhere would produce different campaign telemetry blocks.

std::vector<std::uint64_t> deterministic_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng() % 1'000'000);
  return out;
}

// --- LogHistogram ---

TEST(LogHistogram, BucketIndexIsMonotoneAndContinuous) {
  for (const unsigned bits : {1u, 3u, 6u}) {
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 5000; ++v) {
      const std::size_t idx = LogHistogram::bucket_index(v, bits);
      ASSERT_GE(idx, prev) << "v=" << v;
      ASSERT_LE(idx, prev + 1) << "bucket index must not skip, v=" << v;
      ASSERT_LE(LogHistogram::bucket_floor(idx, bits), v) << "v=" << v;
      prev = idx;
    }
  }
  // The full 64-bit range stays within the dense table.
  EXPECT_LT(LogHistogram::bucket_index(~0ull, 3), std::size_t{64} << 3);
}

TEST(LogHistogram, BucketFloorInvertsIndex) {
  for (const unsigned bits : {1u, 3u, 6u}) {
    for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 255ull, 4096ull, 999'999ull,
                            (1ull << 40) + 12345, ~0ull}) {
      const std::size_t idx = LogHistogram::bucket_index(v, bits);
      EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_floor(idx, bits), bits), idx)
          << "v=" << v << " bits=" << bits;
    }
  }
}

TEST(LogHistogram, TracksCountSumMinMax) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(10);
  h.record(500);
  h.record_n(3, 2);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 516u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 500u);
}

TEST(LogHistogram, QuantileWithinRelativeBucketWidth) {
  LogHistogram h(6);  // 2^-6 relative bucket width
  const auto values = deterministic_values(10'000, 42);
  for (const std::uint64_t v : values) h.record(v);
  auto sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = static_cast<double>(
        sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1))]);
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, exact * (1.0 / 32.0) + 1.0) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), static_cast<double>(h.min()));
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(h.max()));
}

// --- QuantileSketch ---

TEST(QuantileSketch, QuantileWithinRelativeAccuracy) {
  QuantileSketch s(0.01);
  std::mt19937_64 rng(99);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over ~6 decades, the shape of latency-style metrics.
    values.push_back(std::exp(std::uniform_real_distribution<double>(0.0, 14.0)(rng)));
    s.record(values.back());
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.05, 0.5, 0.95, 0.999}) {
    const double exact = values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
    EXPECT_NEAR(s.quantile(q), exact, exact * 0.025) << "q=" << q;
  }
}

TEST(QuantileSketch, ZeroAndNegativeLandInZeroBucket) {
  QuantileSketch s;
  s.record(0.0);
  s.record(-5.0);
  s.record(1e-12);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.record(100.0);
  EXPECT_EQ(s.quantile(0.25), 0.0);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1.0);
}

// --- TrialTelemetry / CampaignTelemetry ---

TEST(TrialTelemetry, FamilyRollupKeepsFirstAndLastSegment) {
  EXPECT_EQ(TrialTelemetry::family("link.chain0-1.delivered"), "link.delivered");
  EXPECT_EQ(TrialTelemetry::family("player.wm.play_attempts"), "player.play_attempts");
  EXPECT_EQ(TrialTelemetry::family("repair.reroutes"), "repair.reroutes");
  EXPECT_EQ(TrialTelemetry::family("plain"), "plain");
  EXPECT_EQ(TrialTelemetry::family("a.b.c.d"), "a.d");
}

TEST(TrialTelemetry, SerializeRoundTrips) {
  TrialTelemetry t;
  t.set_sample("trial.goodput_kbps", 412.375);
  t.set_sample("trial.recovery_ratio", 0.8333333333333334);
  t.set_tally("trial.sim_events", 48868);
  t.add_counter("link.delivered", 2258);
  t.add_counter("link.delivered", 10);  // additive
  t.add_counter("zeroes.dropped", 0);   // zero counters are dropped
  const std::string bytes = t.serialize();
  const auto parsed = TrialTelemetry::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), bytes);
  EXPECT_EQ(parsed->counter("link.delivered"), 2268u);
  EXPECT_EQ(parsed->counter("zeroes.dropped"), 0u);
  ASSERT_TRUE(parsed->sample("trial.recovery_ratio").has_value());
  EXPECT_DOUBLE_EQ(*parsed->sample("trial.recovery_ratio"), 0.8333333333333334);
  ASSERT_TRUE(parsed->tally("trial.sim_events").has_value());
  EXPECT_EQ(*parsed->tally("trial.sim_events"), 48868u);

  // The strict parser still reads back whatever serialize() can write.
  TrialTelemetry empty;
  TrialTelemetry extremes;
  extremes.set_sample("s.negative", -0.5);
  extremes.set_sample("s.zero", 0.0);
  extremes.set_sample("s.subnormal", std::numeric_limits<double>::denorm_min());
  extremes.set_sample("s.max", std::numeric_limits<double>::max());
  extremes.set_sample("s.inf", std::numeric_limits<double>::infinity());
  extremes.set_sample("s.nan", std::numeric_limits<double>::quiet_NaN());
  extremes.set_tally("t.zero", 0);
  extremes.set_tally("t.max", std::numeric_limits<std::uint64_t>::max());
  extremes.add_counter("c.max", std::numeric_limits<std::uint64_t>::max());
  for (const TrialTelemetry* record : {&empty, &extremes}) {
    const std::string text = record->serialize();
    const auto back = TrialTelemetry::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->serialize(), text);
    EXPECT_EQ(back->tallies(), record->tallies());
    EXPECT_EQ(back->counters(), record->counters());
  }
}

// Manifest `telemetry` values a resume must refuse rather than fold: parse()
// is the one telemetry decoder that reads bytes this process did not write.
TEST(TrialTelemetry, ParseRejectsMalformedLines) {
  const struct {
    const char* why;
    const char* line;
  } kRejected[] = {
      {"empty", ""},
      {"unknown version", "tt2|s:|t:|c:"},
      {"no sections", "tt1|bogus"},
      {"no tally section", "tt1|s:|c:"},
      {"no counter section", "tt1|s:|t:"},
      {"entry without '='", "tt1|s:x|t:|c:"},
      {"entry without a name", "tt1|s:=1|t:|c:"},
      {"empty value", "tt1|s:|t:a=|c:"},
      {"trailing comma", "tt1|s:|t:|c:a=1,"},
      {"empty entry", "tt1|s:a=1,,b=2|t:|c:"},
      {"junk after a sample", "tt1|s:x=1.5q|t:|c:"},
      {"junk after a tally", "tt1|s:|t:a=12x|c:"},
      {"second '=' in an entry", "tt1|s:|t:a=1=2|c:"},
      {"negative tally", "tt1|s:|t:a=-1|c:"},
      {"plus-signed counter", "tt1|s:|t:|c:a=+1"},
      {"space before a number", "tt1|s:|t:|c:a= 1"},
      {"sample past the double range", "tt1|s:x=1e999|t:|c:"},
      {"tally past 2^64 (wraps to 1)", "tt1|s:|t:trial.sim_events=18446744073709551617|c:"},
      {"counter at 2^64 (wraps to 0)", "tt1|s:|t:|c:link.delivered=18446744073709551616"},
      {"repeated sample", "tt1|s:x=1,x=2|t:|c:"},
      {"repeated tally", "tt1|s:|t:a=1,a=1|c:"},
      {"repeated counter", "tt1|s:|t:|c:link.delivered=5,link.delivered=7"},
  };
  for (const auto& row : kRejected)
    EXPECT_FALSE(TrialTelemetry::parse(row.line).has_value()) << row.why << ": " << row.line;
}

TEST(TrialTelemetry, FromRegistryRollsUpFamilies) {
  Registry registry;
  registry.counter("link.chain0-1.delivered").add(100);
  registry.counter("link.chain1-2.delivered").add(50);
  registry.counter("player.wm.rebuffer_events").add(3);
  registry.counter("player.wm.watchdog_fired");  // stays 0 -> dropped
  registry.histogram("player.wm.repair_latency_ms", 5.0, 100).record(10.0);
  registry.histogram("player.rm.repair_latency_ms", 5.0, 100).record(30.0);
  const TrialTelemetry t = TrialTelemetry::from_registry(registry);
  EXPECT_EQ(t.counter("link.delivered"), 150u);
  EXPECT_EQ(t.counter("player.rebuffer_events"), 3u);
  EXPECT_EQ(t.counter("player.watchdog_fired"), 0u);
  EXPECT_EQ(t.counter("player.repair_latency_ms.samples"), 2u);
  ASSERT_TRUE(t.sample("player.repair_latency_ms").has_value());
  EXPECT_DOUBLE_EQ(*t.sample("player.repair_latency_ms"), 20.0);
}

TrialTelemetry trial_record(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TrialTelemetry t;
  t.set_sample("trial.goodput_kbps", std::uniform_real_distribution<double>(100.0, 500.0)(rng));
  t.set_sample("trial.stall_ms", std::uniform_real_distribution<double>(0.0, 9000.0)(rng));
  t.set_tally("trial.sim_events", 30'000 + rng() % 20'000);
  t.add_counter("link.delivered", 2000 + rng() % 500);
  return t;
}

TEST(CampaignTelemetry, SerializeIsDeterministicAndSummarized) {
  CampaignTelemetry a, b;
  for (std::uint64_t i = 0; i < 8; ++i) a.fold(trial_record(i));
  for (std::uint64_t i = 0; i < 8; ++i) b.fold(trial_record(i));
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.serialize().rfind("telemetry-v1\ntrials 8\n", 0), 0u);
  ASSERT_NE(a.sketch("trial.goodput_kbps"), nullptr);
  EXPECT_EQ(a.sketch("trial.goodput_kbps")->count(), 8u);
  ASSERT_NE(a.tally("trial.sim_events"), nullptr);
  EXPECT_NE(a.summary().find("trial.goodput_kbps: p50="), std::string::npos);
  EXPECT_EQ(a.sketch("no.such.metric"), nullptr);
  EXPECT_EQ(a.tally("no.such.metric"), nullptr);
}

}  // namespace
}  // namespace streamlab::obs
