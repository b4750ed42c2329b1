// Heap-allocation pins for the event loop, the fleet and the per-packet
// path. This binary replaces the global operator new with a counting one,
// so it lives apart from the other suites: every allocation in the process
// is counted, and each test measures only the window around the operation.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>

#include "analysis/flow.hpp"
#include "core/fleet.hpp"
#include "dissect/conversations.hpp"
#include "filter/evaluator.hpp"
#include "net/buffer.hpp"
#include "net/fragmentation.hpp"
#include "players/protocol.hpp"
#include "sim/event_loop.hpp"
#include "sim/host.hpp"
#include "sim/link.hpp"

namespace {
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_largest{0};

void* counted(std::size_t size) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t prev = g_largest.load(std::memory_order_relaxed);
  while (size > prev && !g_largest.compare_exchange_weak(prev, size)) {
  }
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted(size); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamlab {
namespace {

/// Allocation ledger over a window: calls, bytes and the largest request.
struct AllocWindow {
  std::uint64_t calls0 = g_calls.load();
  std::uint64_t bytes0 = g_bytes.load();
  AllocWindow() { g_largest.store(0); }
  std::uint64_t calls() const { return g_calls.load() - calls0; }
  std::uint64_t bytes() const { return g_bytes.load() - bytes0; }
  std::uint64_t largest() const { return g_largest.load(); }
};

/// The flyweight scheduler's bound: at most one heap allocation per
/// executed event.
constexpr double kMaxAllocsPerEvent = 1.0;

double per_event(std::uint64_t allocs, std::uint64_t events) {
  return static_cast<double>(allocs) / static_cast<double>(events);
}

/// kDepth timers stay pending; each firing re-arms itself one staggered
/// interval ahead, through the handle-free post path or through
/// schedule_in with its handle dropped on the spot (the EventCtl goes back
/// to the pool when the event settles).
struct TimerRing {
  static constexpr std::uint32_t kDepth = 1024;
  EventLoop* loop;
  bool handles;
  void arm(std::uint32_t i) {
    // A coprime stagger spreads the ring across wheel buckets instead of
    // beating in one.
    const Duration in(1000 + (i % 64) * 997);
    if (handles)
      (void)loop->schedule_in(in, [this, i] { arm(i); });
    else
      loop->post_in(in, [this, i] { arm(i); }, obs::EventCategory::kTimer);
  }
};

// Once the bucket vectors and the EventCtl pool are warm, the wheel at a
// constant depth of 1,024 pending timers stays within the bound on both
// scheduling paths.
TEST(Allocations, WarmedTimerRingAllocatesAtMostOncePerEvent) {
  for (const bool handles : {false, true}) {
    EventLoop loop;
    TimerRing ring{&loop, handles};
    for (std::uint32_t i = 0; i < TimerRing::kDepth; ++i) ring.arm(i);
    loop.run(200'000);  // warm the buckets and the EventCtl pool

    constexpr std::uint64_t kEvents = 200'000;
    const AllocWindow window;
    const std::uint64_t fired = loop.run(kEvents);
    const std::uint64_t allocs = window.calls();
    ASSERT_EQ(fired, kEvents);
    EXPECT_LE(per_event(allocs, fired), kMaxAllocsPerEvent)
        << (handles ? "handle" : "post") << " path: " << allocs << " allocations";
  }
}

// A whole fleet run, setup included: the session table, the wheel and its
// warm-up are amortised over every executed event and still stay within
// the bound. 1,000 sessions stream a 2 s episode through the shared
// turbulence window, which covers its middle.
TEST(Allocations, WholeFleetRunAllocatesAtMostOncePerEvent) {
  FleetConfig config;
  config.sessions = 1000;
  config.seed = 1;
  config.episode = Duration::seconds(2);
  config.turbulence_start = Duration::millis(500);
  config.turbulence_duration = Duration::millis(900);
  const AllocWindow window;
  const FleetResult result = run_fleet(config);
  const std::uint64_t allocs = window.calls();
  ASSERT_GT(result.events_executed, 0u);
  EXPECT_LE(per_event(allocs, result.events_executed), kMaxAllocsPerEvent)
      << allocs << " allocations for " << result.events_executed << " events";
}

/// Counts deliveries without storing them, so the sink allocates nothing.
class CountingNode : public Node {
 public:
  CountingNode() : Node("sink") {}
  void handle_packet(const Ipv4Packet&, int) override { ++delivered; }
  std::uint64_t delivered = 0;
};

// Each hop queues the packet, serializes it and delivers it after the
// propagation delay. The delivery closure used to carry the packet itself,
// which overflowed EventFn's inline buffer and cost one heap cell per hop;
// the link's own FIFO now carries it.
TEST(Allocations, ForwardingOverAWarmedLinkAllocatesWellUnderOncePerPacket) {
  EventLoop loop;
  CountingNode a;
  CountingNode b;
  LinkConfig cfg;
  cfg.jitter_stddev = Duration::millis(1);
  Link link(loop, Rng(3), cfg, a, 0, b, 0);
  const std::vector<std::uint8_t> payload(1200, 0x5A);
  const Ipv4Packet pkt = make_udp_packet(Endpoint{Ipv4Address(10, 0, 0, 1), 1},
                                         Endpoint{Ipv4Address(10, 0, 0, 2), 2}, payload, 1);
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      link.send_from_a(pkt);
      loop.run_until(loop.now() + Duration::millis(2));
    }
    loop.run();
  };
  burst(256);  // warm the scheduler, the queues and the slab

  constexpr int kPackets = 2000;
  const std::uint64_t before = b.delivered;
  const AllocWindow window;
  burst(kPackets);
  const std::uint64_t allocs = window.calls();
  ASSERT_EQ(b.delivered - before, static_cast<std::uint64_t>(kPackets));
  EXPECT_LT(allocs, static_cast<std::uint64_t>(kPackets / 4)) << allocs << " allocations";
}

// A 3125-byte WM application frame goes out as three IP fragments. Its bytes
// are written once into a recycled slab block and the fragments are views
// of it, so no heap allocation is anywhere near payload-sized.
TEST(Allocations, SendingAFragmentedDataDatagramAllocatesNoPayloadBytes) {
  EventLoop loop;
  Host host(loop, "server", Ipv4Address(192, 168, 100, 10));
  std::uint64_t fragments = 0;
  host.attach_interface([&fragments](const Ipv4Packet&) { ++fragments; });
  const Endpoint client{Ipv4Address(10, 0, 0, 2), kMediaClientPort};
  constexpr std::size_t kMedia = 3125;
  auto send = [&](std::uint32_t seq) {
    DataHeader h;
    h.seq = seq;
    h.media_offset = std::uint64_t{seq} * kMedia;
    host.udp_send(kMediaServerPort, client, h.wire_size(kMedia),
                  [&h](std::span<std::uint8_t> out) { h.write(out); });
  };
  for (std::uint32_t seq = 0; seq < 8; ++seq) send(seq);  // warm the slab

  const std::uint64_t fragments_before = fragments;
  const Buffer::SlabStats slab_before = Buffer::slab_stats();
  const AllocWindow window;
  send(8);
  const std::uint64_t bytes = window.bytes();
  const std::uint64_t largest = window.largest();
  EXPECT_EQ(fragments - fragments_before, 3u);
  EXPECT_EQ(Buffer::slab_stats().fresh_blocks, slab_before.fresh_blocks);
  EXPECT_EQ(Buffer::slab_stats().recycled_blocks, slab_before.recycled_blocks + 1);
  EXPECT_LT(largest, 1480u) << "a fragment-sized heap allocation";
  EXPECT_LT(bytes, kMedia) << bytes << " heap bytes for one datagram";
}

/// A capture of the study's shapes: single-packet and three-fragment UDP
/// datagrams on two flows, TCP segments and ICMP echoes.
CaptureTrace mixed_capture(int rounds) {
  const Endpoint wm_server{Ipv4Address(192, 168, 100, 10), kMediaServerPort};
  const Endpoint rm_server{Ipv4Address(192, 168, 100, 11), 7070};
  const Endpoint client{Ipv4Address(10, 0, 0, 2), kMediaClientPort};
  CaptureTrace trace;
  SimTime t = SimTime::zero();
  const auto add = [&](const Ipv4Packet& pkt) {
    t += Duration::millis(3);
    trace.add_packet(t, MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  };
  for (int i = 0; i < rounds; ++i) {
    const auto id = static_cast<std::uint16_t>(i);
    add(make_udp_packet(rm_server, client, std::vector<std::uint8_t>(600, 1), id));
    for (const auto& frag : fragment_packet(
             make_udp_packet(wm_server, client, std::vector<std::uint8_t>(3000, 2), id),
             kDefaultMtu))
      add(frag);
    TcpHeader tcp;
    tcp.seq = static_cast<std::uint32_t>(i);
    tcp.flag_ack = true;
    add(make_tcp_packet(client, wm_server, tcp, {}, id));
    add(make_icmp_packet(client.ip, rm_server.ip, IcmpHeader{}, {}, id));
  }
  return trace;
}

// Dissection fills a packed record per frame: the output vector is the
// only allocation, whatever the trace holds.
TEST(Allocations, DissectingATraceAllocatesOnlyItsOutput) {
  const CaptureTrace trace = mixed_capture(200);
  const AllocWindow window;
  const std::vector<DissectedPacket> packets = dissect_trace(trace);
  const std::uint64_t allocs = window.calls();
  ASSERT_EQ(packets.size(), trace.size());
  EXPECT_LE(allocs, 1u) << allocs << " allocations for " << packets.size() << " frames";
}

// A compiled filter reads field numbers and masks; select allocates its output only.
TEST(Allocations, SelectAllocatesOnlyItsOutput) {
  const std::vector<DissectedPacket> packets = dissect_trace(mixed_capture(200));
  for (const char* expr : {"ip.frag_offset > 0", "frame.len == 1514 && udp.port == 1755",
                           "icmp || tcp.flags.syn == 1", "!(ip.addr == 10.0.0.2)",
                           "no.such.field == 3 || eth"}) {
    const auto filter = filter::DisplayFilter::compile(expr);
    ASSERT_TRUE(filter.has_value()) << expr;
    const AllocWindow window;
    const auto selected = filter->select(packets);
    EXPECT_LE(window.calls(), 1u) << expr << ": " << selected.size() << " selected";
  }
}

// Conversations and flows read fields by id: once every conversation is
// known, adding packets allocates nothing, and extracting a flow allocates
// only as its output vector grows.
TEST(Allocations, ConversationsAndFlowsAllocateOnlyForContainerGrowth) {
  const std::vector<DissectedPacket> packets = dissect_trace(mixed_capture(200));
  ConversationTable table;
  AllocWindow first;
  table.add_all(packets);
  EXPECT_LE(first.calls(), 2 * table.size()) << table.size() << " conversations";
  const AllocWindow again;
  table.add_all(packets);
  EXPECT_EQ(again.calls(), 0u);

  const AllocWindow window;
  const FlowTrace flow = FlowTrace::extract(packets, Ipv4Address(192, 168, 100, 10),
                                            kMediaClientPort);
  ASSERT_EQ(flow.size(), 600u);
  EXPECT_LE(window.calls(), static_cast<std::uint64_t>(std::bit_width(flow.size()) + 1));
}

}  // namespace
}  // namespace streamlab
