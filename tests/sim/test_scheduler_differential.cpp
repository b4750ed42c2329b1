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
#include <set>
#include <stdexcept>
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
// the last fired event, a throwing event counts as fired) and nothing else:
// no pooling, no slab, no categories, no observer.
class ReferenceHeapLoop {
  struct Control {
    bool alive = true;
    std::size_t* live = nullptr;
  };

 public:
  class Handle {
   public:
    Handle() = default;
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
      const auto settle = [this, &ev] {
        if (ev.ctl == nullptr || ev.ctl->alive) --live_;
        if (ev.ctl != nullptr) ev.ctl->alive = false;
        ++executed_;
      };
      try {
        ev.fn();
      } catch (...) {
        settle();
        throw;
      }
      settle();
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

// Sparse link-like traffic: a few flows, each a chain of hops 1-40 ms apart
// (wheel levels 1-2) that re-arms a 0.3-5 s retransmit timer (level 3) on
// every hop, cancelling the previous one. One hop in 50 stalls for 0.5-6 s,
// so some timers fire. Almost every event reaches level 0 through one or
// more cascades, and level 0 is nearly always empty when it does.
template <typename Loop>
struct SparseHops {
  static constexpr int kFlows = 6;
  using Handle = decltype(std::declval<Loop&>().schedule_at(SimTime(), [] {}));

  Loop loop;
  Lcg rng{0};
  Recording rec;
  std::array<Handle, kFlows> timers{};
  std::array<int, kFlows> hops{};

  void hop(int flow) {
    const auto f = static_cast<std::size_t>(flow);
    rec.fired.emplace_back(flow * 100000 + hops[f]++, loop.now().ns());
    timers[f].cancel();
    timers[f] = loop.schedule_at(
        loop.now() + Duration(static_cast<std::int64_t>(300'000'000 + rng.below(4'700'000'000))),
        [this, flow] { rec.fired.emplace_back(-flow - 1, loop.now().ns()); });
    const std::uint64_t gap = rng.below(50) == 0 ? 500'000'000 + rng.below(5'500'000'000)
                                                 : 1'000'000 + rng.below(39'000'000);
    loop.post_in(Duration(static_cast<std::int64_t>(gap)), [this, flow] { hop(flow); });
  }

  Recording run(std::uint64_t seed) {
    rng.x = seed;
    for (int f = 0; f < kFlows; ++f) {
      loop.post_at(SimTime(static_cast<std::int64_t>(rng.below(20'000'000))),
                   [this, f] { hop(f); });
    }
    for (int slice = 1; slice <= 300; ++slice) {
      loop.run_until(SimTime::from_seconds(0.1 * slice), 5000);
      rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
    }
    return rec;
  }
};

TEST(SchedulerDifferential, SparseMillisecondHopsCascadeFromUpperLevels) {
  for (const std::uint64_t seed : {3ULL, 99ULL}) {
    const Recording wheel = SparseHops<EventLoop>().run(seed);
    const Recording heap = SparseHops<ReferenceHeapLoop>().run(seed);
    ASSERT_GT(wheel.fired.size(), 2000u);
    EXPECT_EQ(wheel, heap) << "divergence at seed " << seed;
  }
}

// A ring 10^4 deep: every member re-arms itself 1-64 µs ahead with a drawn
// jitter, so each level-0 tick drains a few hundred events into the ready
// heap and the shortest re-posts land inside the drained window. Every
// eighth member holds a handle, and each thousandth firing cancels one.
template <typename Loop>
struct DeepRing {
  static constexpr std::uint32_t kDepth = 10'000;
  using Handle = decltype(std::declval<Loop&>().schedule_at(SimTime(), [] {}));

  Loop loop;
  Lcg rng{0};
  Recording rec;
  std::vector<Handle> handles = std::vector<Handle>(kDepth / 8);

  void arm(std::uint32_t i) {
    const Duration in(static_cast<std::int64_t>(1000 + (i % 64) * 997 + rng.below(700)));
    if (i % 8 == 0) {
      handles[i / 8] = loop.schedule_at(loop.now() + in, [this, i] { fire(i); });
    } else {
      loop.post_in(in, [this, i] { fire(i); });
    }
  }
  void fire(std::uint32_t i) {
    rec.fired.emplace_back(static_cast<int>(i), loop.now().ns());
    if (rec.fired.size() % 1000 == 0) handles[rng.below(handles.size())].cancel();
    arm(i);
  }

  Recording run(std::uint64_t seed) {
    rng.x = seed;
    for (std::uint32_t i = 0; i < kDepth; ++i) arm(i);
    while (loop.executed_events() < 200'000) {
      loop.run_until(SimTime::from_seconds(10.0), 7919);
      rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
    }
    return rec;
  }
};

TEST(SchedulerDifferential, RingTenThousandDeep) {
  const Recording wheel = DeepRing<EventLoop>().run(11);
  const Recording heap = DeepRing<ReferenceHeapLoop>().run(11);
  ASSERT_GE(wheel.fired.size(), 200'000u);
  EXPECT_EQ(wheel, heap);
}

// One callback schedules 1,000 events (several slab chunks) while it runs,
// some at its own instant, some with handles it then half cancels, and it
// reads its own captures after the slab has grown under it: the callback
// runs in place, so its chunk must not have moved. A tenth of its children
// fan out again, one level deep.
template <typename Loop>
struct FanOut {
  using Handle = decltype(std::declval<Loop&>().schedule_at(SimTime(), [] {}));

  Loop loop;
  Lcg rng{0};
  Recording rec;
  std::vector<Handle> handles;

  void child(int id) {
    rec.fired.emplace_back(id, loop.now().ns());
    if (id % 10 != 0) return;
    for (int k = 1; k <= 3; ++k) {
      loop.post_in(Duration(static_cast<std::int64_t>(rng.below(50'000))),
                   [this, id, k] { rec.fired.emplace_back(id * 10 + k, loop.now().ns()); });
    }
  }
  void root(int r) {
    for (int i = 0; i < 1000; ++i) {
      const int id = (r + 1) * 10'000 + i;
      const Duration in(i % 4 == 0 ? 0 : static_cast<std::int64_t>(rng.below(3'000'000)));
      if (i % 3 == 0) {
        handles.push_back(loop.schedule_at(loop.now() + in, [this, id] { child(id); }));
      } else {
        loop.post_in(in, [this, id] { child(id); });
      }
    }
    for (std::size_t h = 0; h < handles.size(); h += 2) handles[h].cancel();
  }

  Recording run(std::uint64_t seed) {
    rng.x = seed;
    for (int r = 0; r < 3; ++r) {
      const std::int64_t tag = 7'000'000 + r;
      loop.post_at(SimTime((r + 1) * 1'000'000), [this, r, tag] {
        root(r);
        rec.fired.emplace_back(r, tag);  // captures read after the slab grew
      });
    }
    loop.run_until(SimTime::from_seconds(1.0), UINT64_MAX);
    rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
    return rec;
  }
};

TEST(SchedulerDifferential, CallbackGrowsTheSlabWhileItRuns) {
  const Recording wheel = FanOut<EventLoop>().run(5);
  const Recording heap = FanOut<ReferenceHeapLoop>().run(5);
  ASSERT_GT(wheel.fired.size(), 2000u);
  EXPECT_EQ(wheel, heap);
}

// A ring of four whose every second firing throws after re-arming itself.
// Each throw unwinds out of run_until and the test resumes the run. The
// loops must agree on order and accounting, and on EventLoop the callbacks
// must keep running in the same few slab slots: a slot the throw path failed
// to free would never be reused, and 10^4 throws would leave 10^4 slots.
struct ThrowingStep {
  static constexpr int kThrows = 10'000;
  template <typename Loop>
  struct Step {
    Loop* loop;
    Recording* rec;
    std::set<const void*>* sites;
    int* fired;
    int id;
    void operator()() const {
      if (sites != nullptr) sites->insert(this);
      rec->fired.emplace_back(id, loop->now().ns());
      loop->post_in(Duration(700 + id * 331), Step{*this});
      if (++*fired % 2 == 0) throw std::runtime_error("step");
    }
  };

  template <typename Loop>
  static Recording run(std::set<const void*>* sites) {
    Recording rec;
    Loop loop;
    int fired = 0;
    for (int id = 0; id < 4; ++id)
      loop.post_at(SimTime(id * 100), Step<Loop>{&loop, &rec, sites, &fired, id});
    int throws = 0;
    while (throws < kThrows) {
      try {
        loop.run_until(SimTime::from_seconds(3600.0), 1000);
      } catch (const std::runtime_error&) {
        ++throws;
        rec.checkpoints.emplace_back(loop.executed_events(), loop.pending_events());
      }
    }
    return rec;
  }
};

TEST(SchedulerDifferential, ThrowingCallbacksFreeTheirSlots) {
  std::set<const void*> sites;
  const Recording wheel = ThrowingStep::run<EventLoop>(&sites);
  const Recording heap = ThrowingStep::run<ReferenceHeapLoop>(nullptr);
  ASSERT_EQ(wheel.checkpoints.size(), static_cast<std::size_t>(ThrowingStep::kThrows));
  EXPECT_EQ(wheel.checkpoints.back(),
            (std::pair<std::uint64_t, std::size_t>{2u * ThrowingStep::kThrows, 4u}));
  EXPECT_EQ(wheel, heap);
  // Four pending steps plus the one re-posting from the running slot: the
  // slab never needed a second 256-slot chunk.
  EXPECT_LE(sites.size(), 8u);
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
