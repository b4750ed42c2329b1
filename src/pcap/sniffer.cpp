#include "pcap/sniffer.hpp"

namespace streamlab {

Sniffer::Sniffer(Host& host, Options options, Sink sink)
    : host_(host),
      options_(options),
      trace_(options.snaplen),
      sink_(std::move(sink)),
      gateway_mac_(MacAddress::for_nic(0xFFFFFF)) {
  host_.set_tap([this](const Ipv4Packet& packet, TapDirection dir, SimTime when) {
    if (dir == TapDirection::kInbound && !options_.capture_inbound) return;
    if (dir == TapDirection::kOutbound && !options_.capture_outbound) return;
    // Reconstruct the Ethernet framing the host NIC would have seen: the
    // gateway's MAC on the far side, the host's own MAC on the near side.
    const MacAddress src = dir == TapDirection::kInbound ? gateway_mac_ : host_.mac();
    const MacAddress dst = dir == TapDirection::kInbound ? host_.mac() : gateway_mac_;
    if (sink_)
      sink_(capture_record(when, src, dst, packet, options_.snaplen));
    else
      trace_.add_packet(when, src, dst, packet);
  });
}

Sniffer::~Sniffer() { host_.set_tap({}); }

}  // namespace streamlab
