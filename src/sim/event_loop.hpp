// Discrete-event simulation core.
//
// A single-threaded event loop with a deterministic total order: events fire
// in (time, insertion-sequence) order, so two events scheduled for the same
// instant run in the order they were scheduled. All of streamlab's network
// behaviour — link serialization, propagation, player send timers, client
// playout — is expressed as events on one loop.
//
// The queue is split in two. A hierarchical timing wheel
// (sim/timing_wheel.hpp) orders 24-byte keys (when, seq, slot) with O(1)
// insert and cursor-jump bucket drains; the callback and its cancel block
// are written once into `slot` of a per-loop slab and stay there until the
// event settles. The slab is a list of fixed-size chunks, so a slot's
// address is stable: fire_next() runs the callback in place even when it
// schedules enough events to grow the slab. The binary heap the wheel
// replaced survives only as a test oracle:
// tests/sim/test_scheduler_differential.cpp replays adversarial schedules
// through both and demands identical recordings.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/audit.hpp"
#include "sim/event_fn.hpp"
#include "sim/timing_wheel.hpp"
#include "util/time.hpp"

namespace streamlab {

/// Per-event control block shared between the queued event and its handle.
/// Refcounted without atomics — the loop (and everything scheduled on it) is
/// single-threaded by design: a loop, its events and their handles must all
/// live and die on one thread. The parallel campaign runner relies on exactly
/// this confinement — each trial's loop is created, run and destroyed on its
/// worker thread, and nothing reachable from it ever crosses to another
/// (net::Buffer makes the same bargain; see DESIGN.md §10). `live` points at
/// the loop's live-event count so cancel() can settle it in O(1); the loop's
/// destructor nulls it out of any still-queued controls so a handle outliving
/// the loop stays harmless.
///
/// Blocks are recycled through a per-thread pool (the net::Buffer slab
/// pattern): release() returns the block to a thread-local free list instead
/// of the heap, so steady-state schedule_at() allocates nothing.
struct EventCtl {
  std::uint32_t refs = 1;
  bool alive = true;
  std::size_t* live = nullptr;

  /// Pops a recycled block from the thread-local pool (or heap-allocates).
  static EventCtl* acquire();
  /// Returns a block whose refcount hit zero to the pool (capped; overflow
  /// is freed). Called by EventCtlRef, not by users.
  static void release(EventCtl* ctl);

  struct PoolStats {
    std::uint64_t fresh = 0;     // heap allocations
    std::uint64_t recycled = 0;  // pool hits
  };
  /// Stats for the calling thread's pool (tests assert recycling kicks in).
  static PoolStats pool_stats();
};

class EventCtlRef {
 public:
  EventCtlRef() = default;
  explicit EventCtlRef(EventCtl* adopted) : p_(adopted) {}
  EventCtlRef(const EventCtlRef& other) : p_(other.p_) {
    if (p_ != nullptr) ++p_->refs;
  }
  EventCtlRef(EventCtlRef&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  EventCtlRef& operator=(EventCtlRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~EventCtlRef() {
    if (p_ != nullptr && --p_->refs == 0) EventCtl::release(p_);
  }
  EventCtl* get() const { return p_; }

 private:
  EventCtl* p_ = nullptr;
};

/// Handle for cancelling a scheduled event. Default-constructed handles are
/// inert. Cancellation is O(1): the event stays queued but is skipped, and
/// the loop's live-event count is decremented immediately so empty() /
/// pending_events() stay truthful.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() {
    EventCtl* ctl = ctl_.get();
    if (ctl != nullptr && ctl->alive) {
      ctl->alive = false;
      if (ctl->live != nullptr) --*ctl->live;
    }
  }
  bool pending() const { return ctl_.get() != nullptr && ctl_.get()->alive; }

 private:
  friend class EventLoop;
  explicit EventHandle(EventCtlRef ctl) : ctl_(std::move(ctl)) {}
  EventCtlRef ctl_;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (clamped to now if in the past).
  /// `category` tags the event for the observer's per-category counts.
  EventHandle schedule_at(SimTime when, EventFn fn,
                          obs::EventCategory category = obs::EventCategory::kGeneric);
  /// Schedules `fn` after a relative delay.
  EventHandle schedule_in(Duration delay, EventFn fn,
                          obs::EventCategory category = obs::EventCategory::kGeneric);

  /// Handle-free scheduling: identical semantics to schedule_at/schedule_in
  /// except no EventHandle is returned, so no EventCtl control block is
  /// allocated at all. The overwhelmingly common case — fire-and-forget
  /// deliveries, send timers that never cancel — pays zero allocations when
  /// the capture fits EventFn's inline buffer.
  void post_at(SimTime when, EventFn fn,
               obs::EventCategory category = obs::EventCategory::kGeneric);
  void post_in(Duration delay, EventFn fn,
               obs::EventCategory category = obs::EventCategory::kGeneric);

  /// Runs until the queue is empty or `limit` events have fired.
  /// Returns the number of events executed.
  ///
  /// Exception safety: a callback that throws unwinds out of run()/run_until()
  /// with the loop's bookkeeping already settled — the event counts as fired,
  /// its control block is flipped so late cancels are no-ops, and empty() /
  /// pending_events() / executed_events() stay truthful. The loop remains
  /// usable: a subsequent run() continues with the next queued event.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);
  /// Runs events with time <= deadline; the clock finishes at exactly
  /// `deadline` even if the queue empties earlier.
  std::uint64_t run_until(SimTime deadline);
  /// Budgeted form: fires at most `limit` events with time <= deadline.
  /// The clock only catches up to `deadline` when the queue drained below
  /// the budget, so a truncated run can be resumed with a further call.
  std::uint64_t run_until(SimTime deadline, std::uint64_t limit);

  /// True when no *live* events remain: cancelled-but-still-queued events
  /// are excluded (they are purged lazily as the loop reaches them).
  bool empty() const { return live_count_ == 0; }
  /// Live (non-cancelled, not yet fired) events currently scheduled.
  std::size_t pending_events() const { return live_count_; }
  std::uint64_t executed_events() const { return executed_; }

  /// Attaches (or detaches, with nullptr) the run's observability context.
  /// Not owned; must outlive the loop or be detached first.
  void set_observer(obs::Obs* obs) { obs_ = obs; }
  obs::Obs* observer() const { return obs_; }

  /// Attaches (or detaches, with nullptr) the run's invariant auditor, which
  /// checks monotone dispatch here and is reachable by every component that
  /// can reach the loop (links, players). Not owned; same lifetime contract
  /// as the observer.
  void set_auditor(audit::Auditor* auditor) { auditor_ = auditor; }
  audit::Auditor* auditor() const { return auditor_; }

 private:
  // The event's category rides in the low bits of `seq` so the queue entry
  // stays compact; ordering is unaffected because the shifted insertion
  // sequence is still strictly monotone.
  static constexpr std::uint64_t kCategoryBits = 3;
  static constexpr std::uint64_t kCategoryMask = (1u << kCategoryBits) - 1;
  static_assert(static_cast<std::uint64_t>(obs::EventCategory::kCount) <=
                (std::uint64_t{1} << kCategoryBits));

  // A queued event's payload, written once by enqueue() and cleared by
  // release_slot() when the event fires or is purged after a cancel.
  struct Slot {
    EventFn fn;
    EventCtlRef ctl;  // null for post_at/post_in events (never cancellable)
  };
  static constexpr std::uint32_t kChunkSlots = 256;

  void enqueue(SimTime when, EventFn&& fn, obs::EventCategory category, EventCtlRef ctl);
  bool fire_next(SimTime deadline);
  Slot& slot(std::uint32_t i) { return chunks_[i / kChunkSlots][i % kChunkSlots]; }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  // The wheel is ~14KB of bucket headers, so it lives behind a pointer.
  std::unique_ptr<detail::TimingWheel> wheel_;
  // The slab: chunks never move once allocated, and free_slots_ holds every
  // slot index not owned by a queued or firing event.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  obs::Obs* obs_ = nullptr;
  audit::Auditor* auditor_ = nullptr;
};

}  // namespace streamlab
