// Micro-benchmarks of the substrate hot paths, including the ablations
// DESIGN.md calls out: checksum throughput, fragmentation/reassembly cost,
// event-loop scheduling (the timing wheel at constant pending depth),
// display-filter evaluation, histogram insertion, and an end-to-end short
// experiment. There is no committed baseline: the numbers describe the
// host they ran on. Allocations per event are pinned by tests/alloc.
#include <benchmark/benchmark.h>

#include "analysis/histogram.hpp"
#include "dissect/dissector.hpp"
#include "filter/evaluator.hpp"
#include "net/checksum.hpp"
#include "net/fragmentation.hpp"
#include "obs/obs.hpp"
#include "pcap/capture.hpp"
#include "dissect/conversations.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamlab;

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

void BM_InternetChecksum(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(internet_checksum(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500)->Arg(9000);

void BM_FragmentPacket(benchmark::State& state) {
  const auto payload = random_bytes(static_cast<std::size_t>(state.range(0)));
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 1);
  for (auto _ : state) benchmark::DoNotOptimize(fragment_packet(pkt, kDefaultMtu));
}
BENCHMARK(BM_FragmentPacket)->Arg(1400)->Arg(3125)->Arg(9137);

void BM_FragmentAndReassemble(benchmark::State& state) {
  const auto payload = random_bytes(static_cast<std::size_t>(state.range(0)));
  std::uint16_t id = 0;
  for (auto _ : state) {
    const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, id++);
    Reassembler reassembler;
    for (const auto& frag : fragment_packet(pkt, kDefaultMtu))
      benchmark::DoNotOptimize(reassembler.offer(frag, SimTime::zero()));
  }
}
BENCHMARK(BM_FragmentAndReassemble)->Arg(3125)->Arg(9137);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    EventLoop loop;
    long sink = 0;
    for (std::int64_t i = 0; i < n; ++i)
      loop.schedule_at(SimTime(i * 1000), [&sink] { ++sink; });
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(100000);

// A self-rescheduling timer ring: `depth` timers stay pending forever, each
// firing reposts itself one staggered interval ahead. This is the
// constant-depth workload the timing wheel is judged on — O(1) amortized
// per event, and the handle-free post path with an inline EventFn capture
// allocates nothing once the bucket vectors are warm.
struct TimerRing {
  EventLoop* loop;
  void arm(std::uint32_t i) {
    // Coprime stagger spreads the ring across wheel buckets instead of
    // beating in one.
    loop->post_in(Duration(1000 + (i % 64) * 997),
                  [this, i] { arm(i); }, obs::EventCategory::kTimer);
  }
};

void BM_EventLoopWheelDepth(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  // Fire a multiple of the depth per iteration so every pending timer
  // cycles several times (steady state, not drain).
  const std::uint64_t budget = static_cast<std::uint64_t>(depth) * 8;
  for (auto _ : state) {
    EventLoop loop;
    TimerRing ring{&loop};
    for (std::uint32_t i = 0; i < depth; ++i) ring.arm(i);
    const std::uint64_t fired = loop.run(budget);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(budget));
}
BENCHMARK(BM_EventLoopWheelDepth)->Arg(100)->Arg(10000)->Arg(100000);

// Observability overhead on the loop hot path. The three cases bound the
// cost ladder the design promises: no observer attached (the default every
// pre-existing run pays — one null check per fired event), metrics only,
// and full tracing with queue-depth sampling. Compare against
// BM_EventLoopScheduleRun for the pre-instrumentation baseline.
void BM_EventLoopObsOff(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    EventLoop loop;
    long sink = 0;
    for (std::int64_t i = 0; i < n; ++i)
      loop.schedule_at(SimTime(i * 1000), [&sink] { ++sink; });
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopObsOff)->Arg(1000)->Arg(100000);

void BM_EventLoopObsMetrics(benchmark::State& state) {
  const auto n = state.range(0);
  obs::Obs::Config cfg;
  cfg.tracing = false;
  for (auto _ : state) {
    obs::Obs obs(cfg);
    EventLoop loop;
    loop.set_observer(&obs);
    long sink = 0;
    for (std::int64_t i = 0; i < n; ++i)
      loop.schedule_at(SimTime(i * 1000), [&sink] { ++sink; });
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopObsMetrics)->Arg(1000)->Arg(100000);

void BM_EventLoopObsTracing(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    obs::Obs obs;
    EventLoop loop;
    loop.set_observer(&obs);
    long sink = 0;
    for (std::int64_t i = 0; i < n; ++i)
      loop.schedule_at(SimTime(i * 1000), [&sink] { ++sink; });
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopObsTracing)->Arg(1000)->Arg(100000);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter c = registry.counter("bench.counter");
  for (auto _ : state) c.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsTracerInstant(benchmark::State& state) {
  obs::Tracer tracer;
  const std::uint16_t name = tracer.intern("bench.instant");
  const std::uint16_t track = tracer.intern("bench");
  std::int64_t t = 0;
  for (auto _ : state) tracer.instant(name, track, SimTime(t += 1000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTracerInstant);

void BM_DissectFrame(benchmark::State& state) {
  CaptureTrace trace;
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2),
                   make_udp_packet(kServer, kClient, random_bytes(900), 7));
  const CaptureRecord& rec = trace.records()[0];
  for (auto _ : state) benchmark::DoNotOptimize(dissect(rec));
}
BENCHMARK(BM_DissectFrame);

void BM_FilterCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::DisplayFilter::compile(
        "ip.src == 192.168.100.10 && (udp.dstport == 7000 || ip.frag_offset > 0)"));
  }
}
BENCHMARK(BM_FilterCompile);

void BM_FilterMatch(benchmark::State& state) {
  CaptureTrace trace;
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2),
                   make_udp_packet(kServer, kClient, random_bytes(900), 7));
  const DissectedPacket pkt = dissect(trace.records()[0]);
  const auto f = filter::DisplayFilter::compile(
      "ip.src == 192.168.100.10 && (udp.dstport == 7000 || ip.frag_offset > 0)");
  for (auto _ : state) benchmark::DoNotOptimize(f->matches(pkt));
}
BENCHMARK(BM_FilterMatch);

void BM_HistogramInsert(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> values(10000);
  for (auto& v : values) v = rng.uniform(0, 1514);
  for (auto _ : state) {
    Histogram h(50.0);
    h.add_all(values);
    benchmark::DoNotOptimize(h.total());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HistogramInsert);

void BM_RngDraws(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(rng.lognormal_mean_cv(1.0, 0.45));
}
BENCHMARK(BM_RngDraws);

void BM_ConversationTable(benchmark::State& state) {
  CaptureTrace trace;
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const Endpoint src{Ipv4Address(192, 168, 100,
                                   static_cast<std::uint8_t>(rng.uniform_int(10, 14))),
                       static_cast<std::uint16_t>(rng.uniform_int(1000, 1010))};
    trace.add_packet(SimTime(i * 1'000'000), MacAddress::for_nic(1),
                     MacAddress::for_nic(2),
                     make_udp_packet(src, kClient, random_bytes(200, i), 1));
  }
  const auto packets = dissect_trace(trace);
  for (auto _ : state) {
    ConversationTable table;
    table.add_all(packets);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ConversationTable);

void BM_TcpTransferEndToEnd(benchmark::State& state) {
  // Full simulated TCP transfer, events and all: the cost of the
  // TCP-friendliness substrate per MB moved.
  for (auto _ : state) {
    PathConfig path;
    path.hop_count = 5;
    path.one_way_propagation = Duration::millis(10);
    path.jitter_stddev = Duration::zero();
    Network net(path);
    Host& sink_host = net.add_server("sink");
    TcpDemux client_demux(net.client());
    TcpDemux server_demux(sink_host);
    TcpBulkReceiver sink(server_demux, 5001);
    TcpBulkSender sender(client_demux, 40001, Endpoint{sink_host.address(), 5001},
                         static_cast<std::uint64_t>(state.range(0)));
    sender.start();
    net.loop().run();
    benchmark::DoNotOptimize(sink.bytes_received());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TcpTransferEndToEnd)->Arg(100'000)->Arg(1'000'000);

}  // namespace

BENCHMARK_MAIN();
