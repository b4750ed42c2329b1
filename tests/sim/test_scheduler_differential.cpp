// Differential and contract tests for the event loop's timing wheel.
//
// The wheel must be observationally identical to a plain binary heap on
// (time, insertion-seq): same fire order, same clocks, same pending/executed
// accounting — on adversarial schedules with same-instant clusters, cancels,
// nested scheduling, budget-truncated runs and far-future events. The
// differential driver below replays one deterministic pseudo-random
// "schedule program" through EventLoop and through ReferenceHeapLoop, a
// test-only `std::priority_queue` oracle, and compares the full recordings.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_loop.hpp"

namespace streamlab {
namespace {

// The oracle: the textbook discrete-event queue, a min-heap on (when, seq).
// It mirrors EventLoop's contract (past times clamp to now, cancel settles
// the live count at once, a budget-truncated run_until leaves the clock at
// the last fired event) and nothing else: no pooling, no categories, no
// observer, no exception bookkeeping.
class ReferenceHeapLoop {
  struct Control {
    bool alive = true;
    std::size_t* live = nullptr;
  };

 public:
  class Handle {
   public:
    void cancel() {
      if (ctl_ != nullptr && ctl_->alive) {
        ctl_->alive = false;
        --*ctl_->live;
      }
    }

   private:
    friend class ReferenceHeapLoop;
    explicit Handle(std::shared_ptr<Control> ctl) : ctl_(std::move(ctl)) {}
    std::shared_ptr<Control> ctl_;
  };

  SimTime now() const { return now_; }
  bool empty() const { return live_ == 0; }
  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

  Handle schedule_at(SimTime when, std::function<void()> fn) {
    auto ctl = std::make_shared<Control>();
    ctl->live = &live_;
    push(when, std::move(fn), ctl);
    return Handle(std::move(ctl));
  }
  void post_at(SimTime when, std::function<void()> fn) { push(when, std::move(fn), nullptr); }
  void post_in(Duration delay, std::function<void()> fn) { post_at(now_ + delay, std::move(fn)); }

  std::uint64_t run_until(SimTime deadline, std::uint64_t limit) {
    std::uint64_t n = 0;
    while (n < limit && fire_next(deadline)) ++n;
    if (n < limit && now_ < deadline) now_ = deadline;
    return n;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<Control> ctl;  // null for post_* events
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  void push(SimTime when, std::function<void()> fn, std::shared_ptr<Control> ctl) {
    heap_.push(Event{std::max(when, now_), next_seq_++, std::move(fn), std::move(ctl)});
    ++live_;
  }

  bool fire_next(SimTime deadline) {
    while (!heap_.empty() && heap_.top().when <= deadline) {
      Event ev = heap_.top();
      heap_.pop();
      if (ev.ctl != nullptr && !ev.ctl->alive) continue;  // cancelled
      now_ = ev.when;
      ev.fn();
      if (ev.ctl == nullptr || ev.ctl->alive) --live_;
      if (ev.ctl != nullptr) ev.ctl->alive = false;
      ++executed_;
      return true;
    }
    return false;
  }

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

// Deterministic 64-bit LCG so the "random" program is identical across
// loops, runs and platforms.
struct Lcg {
  std::uint64_t x;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct Recording {
  // (event id, fire time ns) in execution order, plus accounting checkpoints.
  std::vector<std::pair<int, std::int64_t>> fired;
  std::vector<std::pair<std::uint64_t, std::size_t>> checkpoints;  // executed, pending

  bool operator==(const Recording&) const = default;
};

// One adversarial schedule program: bursts of events over a 50ms horizon with
// same-instant clusters, nested children, random cancels (including
// cancel-from-inside-run), handle-free posts, far-future events at coarse
// wheel levels, and budget-truncated resumed runs.
template <typename Loop>
Recording run_program(std::uint64_t seed) {
  Recording rec;
  Loop loop;
  Lcg rng{seed};
  std::vector<decltype(loop.schedule_at(SimTime(), [] {}))> handles;
  int next_id = 100000;

  const auto record = [&rec, &loop](int id) {
    rec.fired.emplace_back(id, loop.now().ns());
  };

  // Phase A: 400 events over [0, 50ms); every third keeps a handle.
  for (int i = 0; i < 400; ++i) {
    const SimTime when(static_cast<std::int64_t>(rng.below(50'000'000)));
    const int id = i;
    auto fn = [&, id] {
      record(id);
      if (id % 5 == 0) {
        const int child = next_id++;
        loop.post_in(Duration(static_cast<std::int64_t>(rng.below(2'000'000))),
                     [&, child] { record(child); });
      }
      if (id % 7 == 0 && !handles.empty()) {
        handles[rng.below(handles.size())].cancel();
      }
    };
    if (i % 3 == 0) {
      handles.push_back(loop.schedule_at(when, std::move(fn)));
    } else {
      loop.post_at(when, std::move(fn));
    }
  }

  // Phase B: a same-instant cluster right on a likely bucket boundary.
  const SimTime cluster(10'485'760);  // 10240 * 1024 ns
  for (int i = 0; i < 50; ++i) {
    loop.post_at(cluster, [&, id = 1000 + i] { record(id); });
  }

  // Phase C: far-future events exercising coarse wheel levels; half are
  // cancelled before they can fire.
  for (int i = 0; i < 20; ++i) {
    const SimTime when = SimTime(static_cast<std::int64_t>(
        1'000'000'000ULL + rng.below(1'000'000'000'000ULL)));  // 1s .. ~17min
    auto h = loop.schedule_at(when, [&, id = 2000 + i] { record(id); });
    if (i % 2 == 0) h.cancel();
  }
  loop.schedule_at(SimTime::max(), [&] { record(9999); }).cancel();

  // Phase D: budget-truncated runs with mid-run scheduling near `now`.
  std::uint64_t guard = 0;
  while (!loop.empty() && guard++ < 10'000) {
    loop.run_until(SimTime::from_seconds(3600.0), 37);
    rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
    if (guard % 5 == 0) {
      loop.post_in(Duration(static_cast<std::int64_t>(rng.below(500'000))),
                   [&, id = next_id++] { record(id); });
    }
  }
  rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
  return rec;
}

TEST(SchedulerDifferential, WheelMatchesHeapOnAdversarialPrograms) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234567ULL, 0xDEADBEEFULL}) {
    const Recording wheel = run_program<EventLoop>(seed);
    const Recording heap = run_program<ReferenceHeapLoop>(seed);
    ASSERT_FALSE(wheel.fired.empty());
    EXPECT_EQ(wheel, heap) << "divergence at seed " << seed;
  }
}

// Satellite: a budget-truncated run resumed mid-bucket must keep the
// same-instant scheduling order across the resume boundary — including
// events scheduled for that same instant *during* the pause.
TEST(EventLoopContract, TruncatedRunResumedMidBucketKeepsOrder) {
  EventLoop loop;
  std::vector<int> order;
  const SimTime t = SimTime::from_seconds(1.0);
  loop.post_at(SimTime::from_seconds(0.5), [&] { order.push_back(-1); });
  for (int i = 0; i < 10; ++i) loop.post_at(t, [&, i] { order.push_back(i); });

  // Budget cuts inside the same-instant batch: -1 plus three of the ten.
  EXPECT_EQ(loop.run_until(SimTime::from_seconds(2.0), 4), 4u);
  EXPECT_EQ(loop.now(), t);  // truncated: clock stays at the last fired event
  ASSERT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));

  // Late arrivals for the same instant during the pause: they must fire
  // after the already-scheduled batch (insertion order), not before.
  for (int i = 10; i < 13; ++i) loop.post_at(t, [&, i] { order.push_back(i); });

  loop.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(loop.now(), SimTime::from_seconds(2.0));
  EXPECT_TRUE(loop.empty());
}

// Satellite: cancel-heavy workload — 90% of scheduled events cancelled.
// pending_events()/empty() must stay truthful throughout, the lazily-purged
// slots must not disturb the survivors' order, and nothing may leak (this
// suite runs under the ASan job).
TEST(EventLoopContract, CancelHeavyWorkloadStaysTruthful) {
  EventLoop loop;
  constexpr int kN = 5000;
  std::vector<EventHandle> handles;
  handles.reserve(kN);
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    // Scatter deterministically; collisions are fine (seq breaks ties).
    const SimTime when(static_cast<std::int64_t>(i) * 7919 % 100'000'000);
    handles.push_back(loop.schedule_at(when, [&, i] { order.push_back(i); }));
  }
  EXPECT_EQ(loop.pending_events(), static_cast<std::size_t>(kN));

  std::size_t cancelled = 0;
  for (int i = 0; i < kN; ++i) {
    if (i % 10 != 0) {
      handles[static_cast<std::size_t>(i)].cancel();
      ++cancelled;
    }
  }
  EXPECT_EQ(loop.pending_events(), kN - cancelled);
  EXPECT_FALSE(loop.empty());

  // Double-cancel is a no-op on the count.
  handles[1].cancel();
  EXPECT_EQ(loop.pending_events(), kN - cancelled);

  EXPECT_EQ(loop.run(), kN - cancelled);
  EXPECT_EQ(order.size(), kN - cancelled);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending_events(), 0u);

  // Survivors fired in (time, seq) order.
  std::vector<int> expected;
  for (int i = 0; i < kN; i += 10) expected.push_back(i);
  std::sort(expected.begin(), expected.end(), [](int a, int b) {
    const std::int64_t ta = static_cast<std::int64_t>(a) * 7919 % 100'000'000;
    const std::int64_t tb = static_cast<std::int64_t>(b) * 7919 % 100'000'000;
    return ta != tb ? ta < tb : a < b;
  });
  EXPECT_EQ(order, expected);

  // The loop stays fully usable after the lazily-purged run.
  bool again = false;
  loop.post_in(Duration::millis(1), [&] { again = true; });
  loop.run();
  EXPECT_TRUE(again);
}

TEST(EventLoopContract, PostAndScheduleShareOneTotalOrder) {
  EventLoop loop;
  std::vector<int> order;
  const SimTime t = SimTime::from_seconds(1.0);
  loop.post_at(t, [&] { order.push_back(0); });
  loop.schedule_at(t, [&] { order.push_back(1); });
  loop.post_at(t, [&] { order.push_back(2); });
  EXPECT_EQ(loop.pending_events(), 3u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.executed_events(), 3u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopContract, FarFutureEventsFireExactly) {
  EventLoop loop;
  std::vector<std::int64_t> at;
  // Spread across wheel levels: ~66µs, ~4ms, ~270ms, ~17s, ~18min, ~2 days.
  const std::int64_t whens[] = {70'000,         4'300'000,      300'000'000,
                                18'000'000'000, 1'100'000'000'000,
                                180'000'000'000'000};
  for (const std::int64_t w : whens) {
    loop.post_at(SimTime(w), [&, w] {
      EXPECT_EQ(loop.now().ns(), w);
      at.push_back(w);
    });
  }
  // An event parked at the far end of the top level must not block the run.
  EventHandle far = loop.schedule_at(SimTime::max(), [] {});
  loop.run_until(SimTime(whens[5]));
  EXPECT_EQ(at.size(), 6u);
  EXPECT_TRUE(far.pending());
  EXPECT_EQ(loop.pending_events(), 1u);
  far.cancel();
  EXPECT_TRUE(loop.empty());
}

// A pending SimTime::max() event held by a handle across loop destruction:
// the destructor must detach the control block so the late cancel is a no-op
// on freed memory (exercised under ASan).
TEST(EventLoopContract, HandleOutlivesLoopHarmlessly) {
  EventHandle h;
  {
    EventLoop loop;
    h = loop.schedule_at(SimTime::max(), [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_TRUE(h.pending());  // flag untouched; count pointer detached
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventFnTest, SmallCapturesStayInline) {
  int hits = 0;
  void* a = nullptr;
  void* b = nullptr;
  EventFn small([&hits, a, b] { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  // Moving preserves the callable.
  EventFn moved = std::move(small);
  EXPECT_TRUE(moved.is_inline());
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, LargeCapturesFallBackToHeap) {
  std::array<std::uint64_t, 16> big{};
  big[0] = 41;
  int out = 0;
  EventFn fn([big, &out] { out = static_cast<int>(big[0]) + 1; });
  EXPECT_FALSE(fn.is_inline());
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(out, 42);
}

// The EventCtl pool: after a warm-up burst, handle-ful scheduling recycles
// control blocks instead of heap-allocating fresh ones.
TEST(EventCtlPool, SteadyStateRecyclesBlocks) {
  EventLoop loop;
  // Warm the thread-local pool.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) loop.schedule_in(Duration::micros(i), [] {});
    loop.run();
  }
  const EventCtl::PoolStats before = EventCtl::pool_stats();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) loop.schedule_in(Duration::micros(i), [] {});
    loop.run();
  }
  const EventCtl::PoolStats after = EventCtl::pool_stats();
  EXPECT_EQ(after.fresh, before.fresh) << "steady state should not heap-allocate";
  EXPECT_GE(after.recycled - before.recycled, 4u * 64u);
}

}  // namespace
}  // namespace streamlab
