// The Ethereal stand-in: taps a simulated host's NIC and records every
// frame, inbound and outbound, with receive timestamps.
#pragma once

#include <functional>

#include "pcap/capture.hpp"
#include "sim/host.hpp"

namespace streamlab {

/// Attaches to a host on construction and detaches on destruction. The
/// sniffer observes packets at the link layer — trailing IP fragments are
/// recorded individually, before reassembly, exactly as in the paper.
///
/// Records go to trace(), or, for a sniffer built with a sink, to the sink
/// as each frame is captured: a consumer that analyses frames one by one
/// need not hold the whole capture.
class Sniffer {
 public:
  struct Options {
    std::uint32_t snaplen = 65535;
    bool capture_inbound = true;
    bool capture_outbound = true;
  };

  /// Receives each record in capture order; trace() then stays empty.
  using Sink = std::function<void(CaptureRecord&&)>;

  explicit Sniffer(Host& host) : Sniffer(host, Options{}) {}
  Sniffer(Host& host, Options options) : Sniffer(host, options, nullptr) {}
  Sniffer(Host& host, Options options, Sink sink);
  ~Sniffer();
  Sniffer(const Sniffer&) = delete;
  Sniffer& operator=(const Sniffer&) = delete;

  const CaptureTrace& trace() const { return trace_; }
  CaptureTrace take_trace() { return std::move(trace_); }
  std::size_t packets_captured() const { return trace_.size(); }

 private:
  Host& host_;
  Options options_;
  CaptureTrace trace_;
  Sink sink_;
  MacAddress gateway_mac_;
};

}  // namespace streamlab
