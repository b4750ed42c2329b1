#include "obs/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "obs/telemetry.hpp"

namespace streamlab::obs {
namespace {

// These aggregates back the campaign's byte-identity contract, so the tests
// assert *serialized bytes*, not just numeric equality: two merge orders
// that disagree anywhere would produce different campaign telemetry blocks.

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

TEST(LogHistogram, MergeIsAssociativeToTheByte) {
  const auto make = [](std::uint64_t seed) {
    LogHistogram h;
    for (const std::uint64_t v : deterministic_values(500, seed)) h.record(v);
    return h;
  };
  const LogHistogram a = make(1), b = make(2), c = make(3);

  LogHistogram left = a;        // merge(merge(a,b),c)
  left.merge(b);
  left.merge(c);
  LogHistogram bc = b;          // merge(a,merge(b,c))
  bc.merge(c);
  LogHistogram right = a;
  right.merge(bc);
  EXPECT_EQ(left.serialize(), right.serialize());

  LogHistogram reversed = c;    // commutativity under the same fold
  reversed.merge(b);
  reversed.merge(a);
  EXPECT_EQ(left.serialize(), reversed.serialize());
}

TEST(LogHistogram, EmptyIsMergeIdentity) {
  LogHistogram h;
  for (const std::uint64_t v : deterministic_values(100, 7)) h.record(v);
  const std::string before = h.serialize();
  h.merge(LogHistogram());
  EXPECT_EQ(h.serialize(), before);
  LogHistogram empty;
  empty.merge(h);
  EXPECT_EQ(empty.serialize(), before);
}

TEST(LogHistogram, MergeRejectsGeometryMismatch) {
  LogHistogram a(3), b(4);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LogHistogram, SerializeRoundTrips) {
  LogHistogram h;
  for (const std::uint64_t v : deterministic_values(1000, 11)) h.record(v);
  const auto parsed = LogHistogram::parse(h.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), h.serialize());
  EXPECT_EQ(parsed->count(), h.count());
  EXPECT_EQ(parsed->sum(), h.sum());
  EXPECT_FALSE(LogHistogram::parse("garbage").has_value());
  EXPECT_FALSE(LogHistogram::parse("logh1;bits=3;n=5;sum=1;min=0;max=1;b=").has_value());
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

TEST(QuantileSketch, MergeIsAssociativeToTheByte) {
  const auto make = [](std::uint64_t seed) {
    QuantileSketch s;
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 500; ++i)
      s.record(std::uniform_real_distribution<double>(0.0, 5000.0)(rng));
    return s;
  };
  const QuantileSketch a = make(1), b = make(2), c = make(3);

  QuantileSketch left = a;
  left.merge(b);
  left.merge(c);
  QuantileSketch bc = b;
  bc.merge(c);
  QuantileSketch right = a;
  right.merge(bc);
  EXPECT_EQ(left.serialize(), right.serialize());

  QuantileSketch reversed = c;
  reversed.merge(b);
  reversed.merge(a);
  EXPECT_EQ(left.serialize(), reversed.serialize());
}

TEST(QuantileSketch, EmptyIsMergeIdentity) {
  QuantileSketch s;
  s.record(1.5);
  s.record(2000.0);
  const std::string before = s.serialize();
  s.merge(QuantileSketch());
  EXPECT_EQ(s.serialize(), before);
  QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  empty.merge(s);
  EXPECT_EQ(empty.serialize(), before);
}

TEST(QuantileSketch, MergeRejectsAccuracyMismatch) {
  QuantileSketch a(0.01), b(0.02);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QuantileSketch, SerializeRoundTrips) {
  QuantileSketch s;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i)
    s.record(std::uniform_real_distribution<double>(0.0, 100.0)(rng));
  s.record(0.0);
  const auto parsed = QuantileSketch::parse(s.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), s.serialize());
  EXPECT_EQ(parsed->count(), s.count());
  EXPECT_FALSE(QuantileSketch::parse("qsk1;a=2;n=0;z=0;b=").has_value());
  EXPECT_FALSE(QuantileSketch::parse("logh1;bits=3").has_value());
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
  EXPECT_FALSE(TrialTelemetry::parse("tt1|bogus").has_value());
  EXPECT_FALSE(TrialTelemetry::parse("").has_value());
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

TEST(CampaignTelemetry, FoldOrderEqualsBlockMerge) {
  // fold(t0..t3) must equal merge(fold(t0,t1), fold(t2,t3)) byte-for-byte —
  // the distributed-coordinator contract.
  CampaignTelemetry serial;
  for (std::uint64_t i = 0; i < 4; ++i) serial.fold(trial_record(i));
  serial.add_counter("trials.completed", 4);

  CampaignTelemetry left, right;
  left.fold(trial_record(0));
  left.fold(trial_record(1));
  left.add_counter("trials.completed", 2);
  right.fold(trial_record(2));
  right.fold(trial_record(3));
  right.add_counter("trials.completed", 2);
  left.merge(right);

  EXPECT_EQ(serial.serialize(), left.serialize());
  EXPECT_EQ(left.trials_folded(), 4u);
  EXPECT_EQ(left.counter("trials.completed"), 4u);
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
