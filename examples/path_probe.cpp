// path_probe: the pre-flight checks the paper ran before every experiment —
// "Before and after each run, ping and tracert were run to verify that the
// network status had not dramatically changed." Probes each of the six
// data-set paths and prints the ping/tracert output.
//
// Usage: path_probe [data-set 1-6]     (default: probe all six)
#include <cstdio>

#include "core/study.hpp"
#include "sim/tools.hpp"
#include "util/strings.hpp"

using namespace streamlab;

namespace {

void probe(int data_set) {
  Network net(path_for_data_set(data_set, /*seed=*/2002));
  Host& server = net.add_server("server");

  std::printf("--- data set %d path (%d routers) ---\n", data_set, net.hop_count());

  const TracerouteResult route = run_traceroute(net, server.address());
  std::printf("tracert to %s:\n", server.address().to_string().c_str());
  for (const auto& hop : route.hops) {
    std::printf("  %2d  %-16s %s\n", hop.ttl,
                hop.address ? hop.address->to_string().c_str() : "*",
                hop.address ? (fmt_double(hop.rtt.to_millis(), 1) + " ms").c_str() : "");
  }
  std::printf("%s after %d hops\n", route.reached ? "reached" : "NOT reached",
              route.hop_count());

  const PingResult ping = run_ping(net, server.address(), 10);
  std::printf("ping: %d sent, %d received (%.1f%% loss), rtt min/avg/max = "
              "%.1f/%.1f/%.1f ms\n\n",
              ping.sent, ping.received, 100.0 * ping.loss_fraction(),
              ping.min_rtt().to_millis(), ping.avg_rtt().to_millis(),
              ping.max_rtt().to_millis());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const auto set = parse_data_set(argv[1]);
    if (!set) {
      std::fprintf(stderr, "data set must be 1..6\n");
      return 1;
    }
    probe(*set);
    return 0;
  }
  for (int set = 1; set <= 6; ++set) probe(set);
  std::printf("(Figure 1/2 inputs: RTT median ~40 ms, hops mostly 15-20)\n");
  return 0;
}
