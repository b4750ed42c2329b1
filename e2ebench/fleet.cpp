// Workload `fleet`: one run_fleet of 10^4 flyweight sessions per iteration
// on the default scheduler, with an auditor and a determinism probe
// attached, as `turbulence_lab --fleet` does. About 10^4 events stay
// pending, so the event loop and timing wheel work with a deep queue; almost
// nothing else runs.
#include <optional>

#include "alloc_counter.hpp"
#include "core/fleet.hpp"
#include "recorded.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

using namespace streamlab;

/// Not the 10^5 of `turbulence_lab --fleet`: a run of that size takes 7 to
/// 11 s on a shared 4-CPU host, whose full-speed moments last a second or
/// less, so none of a run's few repetitions would find one. 10^4 sessions
/// take ~0.4 s, and the queue is still deep: BENCH_FLEET.json has the wheel
/// 2.2x the heap at this size.
constexpr std::size_t kSessions = 10'000;
/// Set-up warms up with a fleet this big (~0.1 s, long enough to time).
constexpr std::size_t kWarmupSessions = 2'000;

struct FleetRun {
  FleetResult result;
  double seconds = 0.0;
  bool audit_clean = false;
  std::uint64_t probe_digest = 0;
  std::uint64_t allocs = 0;
};

FleetRun run_once(std::uint64_t seed, std::size_t sessions, SpanRecorder& spans) {
  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  FleetConfig config;
  config.sessions = sessions;
  config.seed = seed;
  config.auditor = &auditor;
  config.probe = &probe;
  FleetRun run;
  const AllocScope allocs;
  const auto start = Clock::now();
  {
    const SpanRecorder::Scope span(spans, "sim.run_fleet");
    run.result = run_fleet(config);
  }
  run.seconds = seconds_since(start);
  run.allocs = allocs.delta().calls;
  run.audit_clean = auditor.report().clean();
  run.probe_digest = probe.digest();
  return run;
}

}  // namespace

Report run_fleet_workload(const RunOptions& options) {
  Report report;
  Checks& checks = report.checks;
  const bool default_seed = options.seed == recorded::kFleetSeed;
  report.info = {{"sessions", std::to_string(kSessions)}};
  SpanRecorder untraced(false);

  // Set-up: a small fleet through the same path, so lazy statics, the
  // event-control pool and the allocator are warm before timing.
  SetupTimer setup([&] {
    const FleetRun warm = run_once(options.seed, kWarmupSessions, untraced);
    checks.expect(warm.audit_clean, "fleet: set-up fleet failed its audit");
  });
  setup.repeat(3);

  std::optional<FleetRun> first;
  const auto check_run = [&](const FleetRun& run) {
    checks.expect(run.audit_clean, "fleet: audit violations");
    if (!first) {
      first = run;
      if (default_seed)
        checks.expect(run.result.digest == recorded::kFleetDigest,
                      "fleet: digest " + hex64(run.result.digest) + " != recorded");
    }
    checks.expect(run.result.digest == first->result.digest &&
                      run.probe_digest == first->probe_digest &&
                      run.result.events_executed == first->result.events_executed,
                  "fleet: run differs from the first");
  };

  // At least three runs, however short the budget.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> times_s;
  const auto start = Clock::now();
  while (times_s.size() < 3 || seconds_since(start) < budget) {
    const FleetRun run = run_once(options.seed, kSessions, untraced);
    check_run(run);
    times_s.push_back(run.seconds);
    setup.between_operations(/*interval_s=*/2.0);
  }
  report.setup_s = setup.median_s();
  report.info.push_back({"setup_repeats", std::to_string(setup.repeats())});
  const double fleet_s = fastest(times_s);
  report.ops_per_s = static_cast<double>(kSessions) / fleet_s;
  report.figures.push_back({"fleet_sessions_per_s", report.ops_per_s, "sessions/s", ""});
  report.figures.push_back(timing_figure("fleet_run_s", times_s, "s"));
  report.info.push_back({"fleet_runs", std::to_string(times_s.size())});
  report.info.push_back({"fleet_digest", hex64(first->result.digest)});
  if (!options.trace) return report;

  // Traced runs for the other half; the fastest one is compared and reported.
  SpanRecorder spans(true);
  std::optional<FleetRun> fastest_traced;
  const auto traced_start = Clock::now();
  while (!fastest_traced || seconds_since(traced_start) < budget) {
    const FleetRun run = run_once(options.seed, kSessions, spans);
    check_run(run);
    if (!fastest_traced || run.seconds < fastest_traced->seconds) fastest_traced = run;
  }
  const FleetRun& traced = *fastest_traced;
  const double events = static_cast<double>(traced.result.events_executed);
  auto& m = report.layers;
  m["sim.run_ms"] = 1000.0 * traced.seconds;
  m["sim.events"] = events;
  m["sim.ns_per_event"] = traced.seconds * 1e9 / events;
  m["sim.allocs_per_event"] = static_cast<double>(traced.allocs) / events;
  m["core.fleet.bytes_per_session"] = traced.result.bytes_per_session;
  m["trace_overhead_pct"] = overhead_pct(traced.seconds, fleet_s);
  report.figures.push_back({"trace_overhead_pct", m["trace_overhead_pct"], "%", ""});
  spans.write_chrome_trace(options.out_dir + "/trace-fleet.json");
  return report;
}

}  // namespace e2ebench
