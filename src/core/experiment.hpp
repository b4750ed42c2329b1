// The experiment runner: reproduces the paper's measurement methodology for
// one clip pair — identical content in RealPlayer and MediaPlayer formats,
// streamed simultaneously from co-located servers over the same network
// path to one client, with a sniffer on the client NIC and a tracker on
// each player engine (Section 2).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "analysis/flow.hpp"
#include "media/catalog.hpp"
#include "pcap/capture.hpp"
#include "players/behavior.hpp"
#include "players/client.hpp"
#include "sim/network.hpp"
#include "sim/tools.hpp"
#include "trackers/report.hpp"

namespace streamlab {

struct ExperimentConfig {
  PathConfig path;                       ///< topology of this server's path
  std::uint64_t seed = 1;
  WmBehavior wm;
  RmBehavior rm;
  Duration bandwidth_window = Duration::seconds(2);  ///< Fig 10/11 timeline bin
  std::uint32_t snaplen = 96;            ///< headers-only capture (memory)
  bool keep_capture = false;             ///< retain raw frames for pcap export
  Duration extra_sim_time = Duration::seconds(90);   ///< run-off after clip length
};

/// Everything measured for one clip in one run.
struct ClipRunResult {
  ClipInfo clip;
  TrackerReport tracker;                 ///< application-layer statistics
  FlowTrace flow;                        ///< network-layer packet series
  BufferingAnalysis buffering;           ///< startup burst analysis
  std::vector<PacketEvent> app_packets;  ///< per-packet net/app timestamps (Fig 12)
  Duration server_streaming_duration;
  std::optional<CaptureTrace> capture;   ///< raw capture when keep_capture
};

/// A simultaneous R/M pair run plus the path characterisation around it.
struct PairRunResult {
  ClipRunResult real;
  ClipRunResult media;
  PingResult ping;
  TracerouteResult route;
};

/// One session of a measurement run: a clip streamed from its own server.
struct SessionSpec {
  ClipInfo clip;
  std::uint64_t rm_seed = 0;      ///< RmServer seed (RealPlayer clips only)
  std::uint16_t client_port = 0;  ///< 0 = the player's default port
};

/// Everything stream_sessions measured.
struct StreamRunResult {
  std::vector<ClipRunResult> sessions;   ///< one per spec, in spec order
  PingResult ping;                       ///< when the path was probed
  TracerouteResult route;                ///< when the path was probed
  std::optional<CaptureTrace> capture;   ///< the shared capture when keep_capture
};

/// The measurement procedure of Section 2.A: every spec's clip streamed at
/// once from co-located servers over `config.path` (taken as given, seed
/// included) to one client, with a sniffer on the client NIC and a tracker
/// on each player. With `probe_path`, ping and traceroute characterise the
/// path to the first server before streaming. Each captured frame is
/// dissected once, as it is captured, into every session's flow; the
/// capture itself is kept only with `keep_capture`.
StreamRunResult stream_sessions(const std::vector<SessionSpec>& specs, bool probe_path,
                                const ExperimentConfig& config);

/// Streams one clip over a fresh network; the building block of the study.
ClipRunResult run_single_clip(const ClipInfo& clip, const ExperimentConfig& config);

/// The paper's core procedure: both formats of one clip set at one tier,
/// streamed concurrently from two servers behind the same path.
PairRunResult run_clip_pair(const ClipSet& set, RateTier tier,
                            const ExperimentConfig& config);

}  // namespace streamlab
