// City-scale fleet benchmark — the proof artifact for the timing-wheel
// scheduler and the flyweight session table (results recorded in
// BENCH_FLEET.json; see scripts/bench.sh).
//
// BM_Fleet sweeps N ∈ {1k, 10k, 100k} concurrent flyweight sessions through
// the shared turbulence window and reports:
//   items_per_second  — sessions/sec (completed per wall second)
//   events_per_sec    — event-loop throughput at city scale
//   bytes_per_session — resident SoA table footprint
//   allocs_per_event  — heap allocations per executed event, via the
//                       counting operator new below; the flyweight contract
//                       says ≤1 in steady state (scripts/bench_gate.py
//                       enforces the ceiling)
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/fleet.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook, as in bench_campaign ([replacement.functions]).
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::uint64_t alloc_calls() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace streamlab;

// A shortened episode (2 s of stream per session instead of the lab's 20 s)
// keeps the benchmark wall-clock reasonable at N = 10⁵ while preserving the
// workload shape: the turbulence window still covers the middle of every
// stream, and pending-event depth still equals the session count.
FleetConfig bench_fleet_config(std::size_t sessions) {
  FleetConfig config;
  config.sessions = sessions;
  config.seed = 1;
  config.episode = Duration::seconds(2);
  config.turbulence_start = Duration::millis(500);
  config.turbulence_duration = Duration::millis(900);
  return config;
}

void BM_Fleet(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  const FleetConfig config = bench_fleet_config(sessions);
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double bytes_per_session = 0.0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = alloc_calls();
    const FleetResult r = run_fleet(config);
    allocs += alloc_calls() - allocs_before;
    events += r.events_executed;
    sent += r.packets_sent;
    delivered += r.packets_delivered;
    bytes_per_session = r.bytes_per_session;
    benchmark::DoNotOptimize(r.digest);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sessions));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["bytes_per_session"] = bytes_per_session;
  // Whole-run allocations (table + wheel + bucket warmup) amortized over
  // every executed event; the flyweight contract is ≤1 even with that
  // one-time setup folded in.
  state.counters["allocs_per_event"] =
      events == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(events);
  state.counters["delivery_ratio"] =
      sent == 0 ? 0.0
                : static_cast<double>(delivered) / static_cast<double>(sent);
}
BENCHMARK(BM_Fleet)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
