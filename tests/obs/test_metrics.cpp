#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace streamlab::obs {
namespace {

TEST(Metrics, CounterAddsThroughHandle) {
  Registry registry;
  Counter c = registry.counter("loop.events_fired");
  EXPECT_TRUE(c.live());
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, SameNameSharesStorage) {
  Registry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Metrics, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();
  g.set(5);
  h.record(1.0);
  EXPECT_FALSE(c.live());
  EXPECT_FALSE(g.live());
  EXPECT_FALSE(h.live());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, DisabledRegistryHandsOutInertHandles) {
  Registry registry(/*enabled=*/false);
  EXPECT_FALSE(registry.enabled());
  Counter c = registry.counter("x");
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_TRUE(registry.counters().empty());
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry registry;
  Gauge g = registry.gauge("queue.depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBucketsValues) {
  Registry registry;
  // 3 regular buckets of width 10 plus overflow: [0,10) [10,20) [20,30) [30,inf)
  Histogram h = registry.histogram("stall_ms", 10.0, 3);
  ASSERT_TRUE(h.live());
  h.record(0.0);
  h.record(5.0);
  h.record(15.0);
  h.record(29.9);
  h.record(1000.0);
  h.record(-2.0);  // clamps into bucket 0
  const HistogramData* d = h.data();
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->buckets.size(), 4u);
  EXPECT_EQ(d->buckets[0], 3u);
  EXPECT_EQ(d->buckets[1], 1u);
  EXPECT_EQ(d->buckets[2], 1u);
  EXPECT_EQ(d->buckets[3], 1u);
  EXPECT_EQ(d->total, 6u);
  EXPECT_DOUBLE_EQ(d->sum, 0.0 + 5.0 + 15.0 + 29.9 + 1000.0 - 2.0);
}

TEST(Metrics, HistogramReRegisterKeepsShape) {
  Registry registry;
  Histogram a = registry.histogram("h", 10.0, 3);
  a.record(5.0);
  Histogram b = registry.histogram("h", 99.0, 50);  // shape ignored: same metric
  ASSERT_TRUE(b.live());
  EXPECT_EQ(b.data(), a.data());
  EXPECT_DOUBLE_EQ(b.data()->bucket_width, 10.0);
  EXPECT_EQ(b.data()->buckets.size(), 4u);
}

TEST(Metrics, SnapshotsAreNameSorted) {
  Registry registry;
  registry.counter("b").add(2);
  registry.counter("a").add(1);
  registry.gauge("z").set(-5);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "b");
  EXPECT_EQ(counters[1].second, 2u);
  const auto gauges = registry.gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].second, -5);
}

}  // namespace
}  // namespace streamlab::obs
