// Hierarchical timing wheel with a deterministic drain order.
//
// The classic timer-wheel trade-off is O(1) insert/cancel at the cost of
// losing total order inside a bucket. streamlab cannot give up the
// deterministic (time, insertion-seq) order — campaign digests are
// byte-compared across runs and worker counts — so this wheel restores it by
// never handing events out of a bucket directly: the earliest occupied
// level-0 bucket is drained into a small (when, seq)-ordered ready heap, and
// events are popped from there. Since a level-0 bucket only holds the events
// of one ~1µs tick, the ready heap stays tiny (a handful of entries) and the
// per-event cost is O(log bucket_population) instead of O(log total_pending).
//
// The wheel stores 24-byte trivially copyable keys (when, seq, slot), never
// the callbacks: EventLoop keeps each callback in a slab slot that does not
// move while the event waits, so every push, cascade, drain and heap sift
// here is a plain copy of three words.
//
// Layout: kLevels wheels of kBuckets buckets each. Level l buckets are
// 2^(kTickBits + l·kBucketBits) ns wide; with 10 tick bits, 6 bucket bits and
// 9 levels the top level spans past the int64 nanosecond range, so there is
// no separate overflow structure — the coarse upper levels *are* the
// calendar spill for far-future events (including SimTime::max()), which
// cascade down level by level as the cursor approaches. Bucket indices are
// absolute ((when >> shift) & mask) and occupancy is one bitmap word per
// level. Each upper level caches the start of its earliest occupied bucket,
// and `upper_` caches the minimum over levels 1..8, so the common advance —
// level 0's next bucket comes first — reads one bitmap and drains.
//
// Determinism argument (see DESIGN.md §15):
//  * `cursor_` is the exclusive end of the drained window; an insert with
//    when < cursor_ goes straight into the ready heap, where (when, seq)
//    ordering puts it exactly where the global heap would have.
//  * Same-instant events carry strictly monotone seq numbers, so the ready
//    heap fires them in scheduling order — including events scheduled *into*
//    a bucket that is already drained (they join the ready heap instead).
//  * Cascades only move events between buckets keyed by absolute time, so
//    the drain order is independent of when cascades happen.
//  * Every occupied bucket at levels >= 1 starts at or after the cursor and
//    within one rotation of it (level_for never picks the cursor's own
//    bucket there), so a level's earliest bucket start does not change as
//    the cursor moves: the per-level cache changes only when that level is
//    pushed to (it can only drop) or cascaded (it is recomputed).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/time.hpp"

namespace streamlab::detail {

/// A queued event as the wheel sees it: its (when, seq) order and the slab
/// slot that holds its callback.
struct EventKey {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t slot;
};
static_assert(sizeof(EventKey) == 24 && std::is_trivially_copyable_v<EventKey>);

class TimingWheel {
 public:
  static constexpr int kTickBits = 10;              // level-0 tick: 1024 ns
  static constexpr int kBucketBits = 6;             // 64 buckets per level
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  // 10 + 9·6 = 64 bits: the top level's span covers the whole non-negative
  // int64 range, so any `when` (including SimTime::max()) has a bucket.
  static constexpr int kLevels = 9;

  TimingWheel() { start_.fill(kNone); }

  void push(EventKey key) {
    const std::int64_t when = key.when.ns();
    if (when < cursor_) {
      // Inside the already-drained window: join the ready heap, where the
      // (when, seq) order restores the event's global position.
      ready_push(key);
      return;
    }
    const int level = level_for(when);
    const std::size_t idx = (static_cast<std::uint64_t>(when) >> shift(level)) & kMask;
    buckets_[level][idx].push_back(key);
    occupied_[level] |= std::uint64_t{1} << idx;
    ++size_;
    if (level > 0) {
      const std::int64_t start = bucket_start(when, level);
      start_[level] = std::min(start_[level], start);
      upper_ = std::min(upper_, start);
    }
  }

  /// Earliest event by (when, seq), or nullptr when empty. Advances the
  /// cursor (draining buckets into the ready heap) as needed.
  const EventKey* peek() {
    while (ready_.empty()) {
      if (size_ == 0) return nullptr;
      advance();
    }
    return &ready_.front();
  }

  /// Removes and returns the event peek() points at. Requires peek() != null.
  EventKey pop() {
    std::pop_heap(ready_.begin(), ready_.end(), After{});
    const EventKey key = ready_.back();
    ready_.pop_back();
    return key;
  }

 private:
  static constexpr int shift(int level) { return kTickBits + level * kBucketBits; }
  // "No occupied bucket": above every bucket start, since no bucket starts
  // at INT64_MAX, so a plain min() skips empty levels.
  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();

  static std::int64_t bucket_start(std::int64_t when, int level) {
    return static_cast<std::int64_t>((static_cast<std::uint64_t>(when) >> shift(level))
                                     << shift(level));
  }

  // Smallest level where the bucket-index distance from the cursor fits one
  // rotation. Choosing by index distance (not raw delta) keeps an insert off
  // the bucket the cursor currently occupies at levels >= 1 — that bucket was
  // already cascaded, so landing in it would wait a full rotation too long.
  int level_for(std::int64_t when) const {
    const std::uint64_t d =
        (static_cast<std::uint64_t>(when) - static_cast<std::uint64_t>(cursor_)) >> kTickBits;
    if (d == 0) return 0;
    int level = (std::bit_width(d) - 1) / kBucketBits;
    if (level >= kLevels) return kLevels - 1;
    if (level + 1 < kLevels &&
        ((static_cast<std::uint64_t>(when) >> shift(level)) -
         (static_cast<std::uint64_t>(cursor_) >> shift(level))) >= kBuckets)
      ++level;
    return level;
  }

  // Start time of the earliest occupied bucket at `level`, treating bits
  // behind the cursor's index as the next rotation. kNone when level empty.
  std::int64_t next_bucket_start(int level) const {
    const std::uint64_t occ = occupied_[level];
    if (occ == 0) return kNone;
    const std::uint64_t unit = static_cast<std::uint64_t>(cursor_) >> shift(level);
    const unsigned c = static_cast<unsigned>(unit & kMask);
    const std::uint64_t ahead = occ >> c;
    const std::uint64_t bucket_no =
        ahead != 0 ? unit + static_cast<unsigned>(std::countr_zero(ahead))
                   : unit - c + kBuckets + static_cast<unsigned>(std::countr_zero(occ));
    return static_cast<std::int64_t>(bucket_no << shift(level));
  }

  // Retires the earliest occupied bucket across all levels: when level 0's
  // next bucket starts before every upper level's, it is drained without
  // looking further; otherwise the cursor jumps to the upper bound, every
  // level whose earliest bucket starts exactly there cascades (top-down, each
  // into levels strictly below it and strictly ahead of the cursor's own
  // bucket at levels >= 1), and the level-0 bucket at the cursor, if any,
  // drains. Every call retires or demotes at least one bucket, so peek()
  // terminates.
  void advance() {
    const std::int64_t first = next_bucket_start(0);
    if (upper_stale_) {
      upper_ = *std::min_element(start_.begin() + 1, start_.end());
      upper_stale_ = false;
    }
    if (first < upper_) {
      drain(first);
      return;
    }
    const std::int64_t best = upper_;
    cursor_ = best;  // safe: no stored event precedes the earliest bucket
    for (int l = kLevels - 1; l >= 1; --l) {
      if (start_[l] == best) cascade(l, best);
    }
    upper_stale_ = true;
    const std::size_t idx = (static_cast<std::uint64_t>(best) >> kTickBits) & kMask;
    if (occupied_[0] & (std::uint64_t{1} << idx)) drain(best);
  }

  void cascade(int level, std::int64_t start) {
    const std::size_t idx = (static_cast<std::uint64_t>(start) >> shift(level)) & kMask;
    auto& bucket = buckets_[level][idx];
    occupied_[level] &= ~(std::uint64_t{1} << idx);
    start_[level] = next_bucket_start(level);
    size_ -= bucket.size();
    // Swap out: push() below must not touch the vector being iterated (an
    // event can re-land in a lower level's bucket, never this one).
    std::vector<EventKey> moving;
    moving.swap(bucket);
    for (const EventKey& key : moving) push(key);
    // Hand the capacity back so steady-state cascading stays allocation-free.
    moving.clear();
    bucket.swap(moving);
  }

  // Moves the level-0 bucket starting at `start` into the ready heap and
  // closes the drained window at the end of its tick.
  void drain(std::int64_t start) {
    const std::uint64_t tick = static_cast<std::uint64_t>(start) >> kTickBits;
    const std::size_t idx = tick & kMask;
    auto& bucket = buckets_[0][idx];
    occupied_[0] &= ~(std::uint64_t{1} << idx);
    size_ -= bucket.size();
    for (const EventKey& key : bucket) ready_push(key);
    bucket.clear();
    cursor_ = static_cast<std::int64_t>((tick + 1) << kTickBits);
  }

  // Min-heap on (when, seq) over `ready_`.
  struct After {
    bool operator()(const EventKey& a, const EventKey& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void ready_push(EventKey key) {
    ready_.push_back(key);
    std::push_heap(ready_.begin(), ready_.end(), After{});
  }

  std::array<std::array<std::vector<EventKey>, kBuckets>, kLevels> buckets_{};
  std::array<std::uint64_t, kLevels> occupied_{};
  // start_[l]: next_bucket_start(l) for l >= 1 (start_[0] stays kNone).
  std::array<std::int64_t, kLevels> start_{};
  std::int64_t upper_ = kNone;  // min of start_[1..]; stale after a cascade
  bool upper_stale_ = false;
  std::vector<EventKey> ready_;
  std::int64_t cursor_ = 0;  // exclusive end of the drained window, tick-aligned
  std::size_t size_ = 0;     // events stored in buckets (ready_ counted separately)
};

}  // namespace streamlab::detail
