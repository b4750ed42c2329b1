// The Ethereal stand-in: taps a simulated host's NIC and records every
// frame, inbound and outbound, with receive timestamps.
#pragma once

#include <functional>
#include <utility>

#include "pcap/capture.hpp"
#include "sim/host.hpp"

namespace streamlab {

/// Attaches to a host on construction and detaches on destruction. The
/// sniffer observes packets at the link layer — trailing IP fragments are
/// recorded individually, before reassembly, exactly as in the paper.
///
/// Each frame is written once, cut to the snaplen, into trace()'s buffer.
/// A sniffer built with a sink also hands the sink each record as it is
/// captured, and keeps it only when the sink says so: a consumer that
/// analyses frames one by one need not hold the whole capture, and then
/// every frame reuses the bytes of the one before.
class Sniffer {
 public:
  struct Options {
    std::uint32_t snaplen = 65535;
    bool capture_inbound = true;
    bool capture_outbound = true;
  };

  /// Receives each record in capture order, as a view that is valid while
  /// the sink runs, and returns whether trace() keeps it.
  using Sink = std::function<bool(const CaptureRecord&)>;

  explicit Sniffer(Host& host) : Sniffer(host, Options{}) {}
  Sniffer(Host& host, Options options) : Sniffer(host, options, nullptr) {}
  Sniffer(Host& host, Options options, Sink sink);
  ~Sniffer();
  Sniffer(const Sniffer&) = delete;
  Sniffer& operator=(const Sniffer&) = delete;

  const CaptureTrace& trace() const { return trace_; }
  /// Moves the kept records out; the sniffer goes on with an empty trace.
  CaptureTrace take_trace() { return std::exchange(trace_, CaptureTrace(options_.snaplen)); }
  std::size_t packets_captured() const { return trace_.size(); }

 private:
  Host& host_;
  Options options_;
  CaptureTrace trace_;
  Sink sink_;
  MacAddress gateway_mac_;
};

}  // namespace streamlab
