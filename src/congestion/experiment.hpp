// Bandwidth-constrained streaming experiments — the study the paper's
// Section VI proposes as future work ("studies similar to this one under
// bandwidth constrained conditions"), built on the same pipeline.
//
// The central question comes from Section 3.C: IP fragmentation "can
// seriously degrade network goodput during congestion, since a loss of a
// single fragment results in the larger application layer frame being
// discarded" — fragmentation-based congestion collapse [FF99]. These
// experiments constrain the bottleneck below or near the encoding rate and
// measure throughput (wire bytes arriving), goodput (media bytes delivered
// in complete datagrams) and the wasted bandwidth in between, separately
// for the fragmenting MediaPlayer flows and the never-fragmenting
// RealPlayer flows.
#pragma once

#include <vector>

#include "core/experiment.hpp"

namespace streamlab {

struct CongestionConfig {
  /// Bottleneck capacity; set at or below the encoding rate to congest.
  BitRate bottleneck = BitRate::kbps(300);
  /// Drop-tail queue at the bottleneck, bytes. Small queues drop sooner.
  std::size_t queue_limit_bytes = 16 * 1024;
  int hop_count = 10;
  Duration one_way_propagation = Duration::millis(20);
  std::uint64_t seed = 1;
  WmBehavior wm;
  RmBehavior rm;
};

struct CongestionResult {
  ClipInfo clip;
  BitRate bottleneck;

  /// Encoding rate over bottleneck capacity (> 1 means overload).
  double offered_load = 0.0;
  /// Wire packets lost end-to-end (sequence gaps + missing fragments),
  /// as a fraction of packets sent.
  double packet_loss = 0.0;
  /// Wire bytes arriving at the client NIC per second of streaming.
  double throughput_kbps = 0.0;
  /// Media bytes delivered to the application in complete datagrams, per
  /// second of streaming — the goodput [FF99] cares about.
  double goodput_kbps = 0.0;
  /// Wire bytes that arrived but belonged to datagrams never completed
  /// (orphaned fragments), per second — wasted bottleneck capacity.
  double wasted_kbps = 0.0;
  /// Frames rendered on time, percent.
  double reception_quality = 0.0;

  /// goodput / throughput: 1.0 means every delivered byte was useful.
  double goodput_efficiency() const {
    return throughput_kbps <= 0.0 ? 0.0 : goodput_kbps / throughput_kbps;
  }
};

/// Streams one clip through a constrained bottleneck and measures the
/// throughput/goodput split.
CongestionResult run_congestion_experiment(const ClipInfo& clip,
                                           const CongestionConfig& config);

/// What media scaling (Section VI) made of one overloaded stream.
struct ScalingResult {
  double keep_fraction = 1.0;        ///< the server's final frame keep fraction
  std::size_t level_changes = 0;     ///< scaling level switches
  std::uint32_t frames_thinned = 0;  ///< frames the server chose not to send
  std::uint32_t frames_rendered = 0;
  std::uint32_t frames_total = 0;    ///< frames in the clip
  std::uint64_t reports = 0;         ///< receiver reports the client sent
  /// Frames rendered on time, percent of the frames the server sent.
  double quality_of_sent = 0.0;
};

/// Streams one clip through the constrained bottleneck with media scaling on
/// at both ends: the server thins frames from the client's loss reports
/// until the stream fits.
ScalingResult run_scaling_experiment(const ClipInfo& clip, const CongestionConfig& config);

/// Sweeps bottleneck capacities (Kbps) for one clip: one run_congestion_experiment
/// per capacity, run side by side on the job pool, results in input order.
std::vector<CongestionResult> sweep_bottleneck(const ClipInfo& clip,
                                               const std::vector<double>& bottlenecks_kbps,
                                               CongestionConfig config = {});

}  // namespace streamlab
