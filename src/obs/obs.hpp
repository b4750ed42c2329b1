// Observability context: one Registry + one Tracer per experiment run.
//
// An Obs is attached to the run's EventLoop (Network::attach_observer wires
// a whole topology at once); every component that can reach the loop can
// then reach the run's trace. The registry's counts are the loop's own; the
// components' counts stay in their Stats records until the run writes them
// into the registry at its end. Nothing in the simulation owns an Obs —
// runs that don't care pass nullptr and pay a single null-pointer branch per
// instrumentation site (bench_micro's BM_EventLoopObs* cases measure the
// overhead).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace streamlab::obs {

/// Coarse event taxonomy for the loop's per-category callback counts.
/// Schedule sites tag their events; untagged events count as kGeneric.
enum class EventCategory : std::uint8_t {
  kGeneric = 0,
  kLink,     ///< serialization / propagation / delivery events
  kPlayout,  ///< frame decode deadlines and stall polls
  kControl,  ///< PLAY retries, watchdogs, receiver reports
  kFault,    ///< impairment apply/clear events
  kTimer,    ///< application batch & pacing timers
  kCount,
};

const char* to_string(EventCategory category);

class Obs {
 public:
  struct Config {
    bool metrics = true;
    bool tracing = true;
    std::size_t trace_capacity = std::size_t{1} << 18;
    /// Rate limit for trace counter samples (queue depths etc.).
    Duration sample_interval = Duration::millis(100);
  };

  Obs() : Obs(Config{}) {}
  explicit Obs(Config config);
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  bool tracing() const { return tracer_.enabled(); }

  /// Returns the context to its just-constructed state without discarding
  /// interned names, metric storage or handed-out handles. The campaign
  /// runner keeps one Obs per worker and resets it between trials — the
  /// per-trial cost becomes a few memset-sized loops instead of rebuilding
  /// every registry map and intern table from scratch.
  void reset_for_reuse() {
    registry_.reset_values();
    tracer_.reset_keep_interned();
  }

  /// EventLoop hook, called once per fired event: bumps the total and
  /// per-category counters and samples the live queue depth into the trace
  /// at the configured cadence.
  void on_loop_event(EventCategory category, std::size_t queue_depth, SimTime now) {
    events_fired_.add();
    fired_by_category_[static_cast<std::size_t>(category)].add();
    if (tracer_.enabled())
      tracer_.sample(queue_depth_name_, now, static_cast<double>(queue_depth));
  }

 private:
  Registry registry_;
  Tracer tracer_;
  Counter events_fired_;
  Counter fired_by_category_[static_cast<std::size_t>(EventCategory::kCount)];
  std::uint16_t queue_depth_name_ = 0;
};

}  // namespace streamlab::obs
