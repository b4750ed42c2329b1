// Fitted traffic model — Section IV of the paper.
//
// "Simulations based on data from this paper can be an effective means of
// exploring network impact ... we would select an RTT based on Figure 1,
// an encoding rate and clip length from Table 1, packet sizes from
// distributions based on Figures 6 and 7, intervals based on Figures 8 and
// 9, fragmentation rates based on Figure 5, and RealPlayer startup rates
// based on Figure 11."
//
// FlowModel::fit() extracts exactly those empirical distributions from a
// completed study, so synthetic flows inherit the measured behaviour rather
// than hand-tuned constants.
#pragma once

#include "core/study.hpp"
#include "util/rng.hpp"

namespace streamlab {

/// Per-player fitted distributions.
struct PlayerModel {
  PlayerKind player = PlayerKind::kRealPlayer;
  /// Normalised packet size distribution (Figure 7): multiply by a mean
  /// packet size implied by the encoding rate.
  EmpiricalSampler normalized_sizes{std::vector<double>{}};
  /// Normalised interarrival distribution (Figure 9).
  EmpiricalSampler normalized_intervals{std::vector<double>{}};
  /// Mean wire packet size per clip, as (encoding Kbps, mean bytes) points
  /// interpolated linearly at generation time.
  std::vector<std::pair<double, double>> mean_size_by_rate;
  /// Fragment fraction per clip (Figure 5), (encoding Kbps, fraction).
  std::vector<std::pair<double, double>> fragment_fraction_by_rate;
  /// Buffering ratio per clip (Figure 11; ~1 for MediaPlayer).
  std::vector<std::pair<double, double>> buffering_ratio_by_rate;

  double mean_size_at(double kbps) const;
  double fragment_fraction_at(double kbps) const;
  double buffering_ratio_at(double kbps) const;
};

/// The complete fitted model: both players plus the RTT distribution.
struct FlowModel {
  EmpiricalSampler rtt_ms{std::vector<double>{}};  ///< Figure 1
  PlayerModel real;
  PlayerModel media;

  const PlayerModel& for_player(PlayerKind kind) const {
    return kind == PlayerKind::kRealPlayer ? real : media;
  }

  static FlowModel fit(const StudyResults& study);
};

}  // namespace streamlab
