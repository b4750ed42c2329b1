// Tests of the benchmark's own arithmetic: percentiles, quartiles, span
// self times, the counting allocator and fail_ratio.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(200, 95.0), 10u);
  EXPECT_EQ(samples_beyond(199, 95.0), 9u);
  EXPECT_EQ(percentile(one_to(200), 95.0), 190.0);
  EXPECT_FALSE(percentile(one_to(199), 95.0).has_value());
  EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(Percentile, ReportsTheHighestSupportedOne) {
  const auto tail = highest_supported_percentile(one_to(100));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 90.0);
  EXPECT_EQ(tail->value, 90.0);
  EXPECT_EQ(highest_supported_percentile(one_to(1000))->percentile, 99.0);
  EXPECT_EQ(highest_supported_percentile(one_to(20))->percentile, 50.0);
  EXPECT_FALSE(highest_supported_percentile(one_to(19)).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Fastest, SmallestTimingAndEmpty) {
  EXPECT_EQ(fastest({0.9, 0.4, 1.7}), 0.4);
  EXPECT_EQ(fastest({}), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
  const Quartiles small = quartiles({4, 1, 3});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.median, 3.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsNestedAndBackToBackChildren) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("a", 10, 30, 0),   // back to back with b
      span("b", 30, 50, 0),
      span("a.inner", 12, 20, 1),
      span("c", 70, 90, 0),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 20 - 20);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 8);
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  EXPECT_EQ(sum, 100);  // self times add up to the root span
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {span("root", 0, 100, -1), span("x", 10, 60, 0),
                                   span("y", 40, 80, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 70);
}

TEST(SpanRecorder, NestsPerThreadAndRebasesSlices) {
  SpanRecorder recorder(true);
  {
    const SpanRecorder::Scope outer(recorder, "outer");
    { const SpanRecorder::Scope inner(recorder, "inner"); }
    std::thread([&] { const SpanRecorder::Scope other(recorder, "other"); }).join();
  }
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);  // another thread's span does not nest
  EXPECT_NE(spans[2].track, spans[0].track);
  const auto tail = recorder.spans_since(1);
  EXPECT_EQ(tail[0].parent, -1);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder recorder(false);
  { const SpanRecorder::Scope s(recorder, "x"); }
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(AllocCounter, EachSpanCountsFromZero) {
  std::unique_ptr<std::vector<int>> first;
  {
    const AllocScope span;
    first = std::make_unique<std::vector<int>>(100);
    EXPECT_EQ(span.delta().calls, 2u);
    EXPECT_GE(span.delta().bytes, 100 * sizeof(int));
  }
  const AllocScope next;
  EXPECT_EQ(next.delta().calls, 0u);
  auto second = std::make_unique<int>(7);
  EXPECT_EQ(next.delta().calls, 1u);
  EXPECT_EQ(next.delta().bytes, sizeof(int));
}

TEST(AllocCounter, CountsOnlyTheCallingThread) {
  AllocScope scope;
  std::thread([] { auto p = std::make_unique<std::vector<int>>(1000); }).join();
  // std::thread's own state block is allocated here; the vector is not.
  EXPECT_LE(scope.delta().bytes, 1000 * sizeof(int) / 2);
}

TEST(FailRatio, Arithmetic) {
  EXPECT_EQ(fail_ratio(0, 10), 0.0);
  EXPECT_EQ(fail_ratio(3, 12), 0.25);
  EXPECT_EQ(fail_ratio(5, 5), 1.0);
  EXPECT_EQ(fail_ratio(0, 0), 1.0);   // nothing attempted counts as failed
  EXPECT_EQ(fail_ratio(9, 3), 1.0);   // never above one
}

TEST(Digest, SensitiveToOrderAndBits) {
  EXPECT_NE(Digest().u64(1).u64(2).value(), Digest().u64(2).u64(1).value());
  EXPECT_NE(Digest().f64(0.1).value(), Digest().f64(0.1 + 1e-17 + 1e-16).value());
  EXPECT_NE(Digest().str("ab").str("c").value(), Digest().str("a").str("bc").value());
  EXPECT_EQ(hex64(0xabc), "0000000000000abc");
}

}  // namespace
}  // namespace e2ebench
