#include "tracegen/model.hpp"

#include <algorithm>

#include "core/figures.hpp"

namespace streamlab {
namespace {

/// Piecewise-linear interpolation over (x, y) points; clamps outside the
/// observed range. Points need not be pre-sorted.
double interpolate(std::vector<std::pair<double, double>> points, double x) {
  if (points.empty()) return 0.0;
  std::sort(points.begin(), points.end());
  if (x <= points.front().first) return points.front().second;
  if (x >= points.back().first) return points.back().second;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (x <= points[i].first) {
      const auto& [x0, y0] = points[i - 1];
      const auto& [x1, y1] = points[i];
      const double t = x1 == x0 ? 0.0 : (x - x0) / (x1 - x0);
      return y0 + t * (y1 - y0);
    }
  }
  return points.back().second;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

PlayerModel fit_player(const StudyResults& study, PlayerKind kind) {
  PlayerModel m;
  m.player = kind;
  m.normalized_sizes = EmpiricalSampler(figures::normalized_packet_sizes(study, kind));
  m.normalized_intervals =
      EmpiricalSampler(figures::normalized_interarrivals(study, kind));

  for (const auto* clip : study.clips_for(kind)) {
    const double kbps = clip->clip.encoded_rate.to_kbps();
    m.mean_size_by_rate.emplace_back(kbps, mean_of(clip->flow.packet_sizes()));
    m.fragment_fraction_by_rate.emplace_back(kbps, clip->flow.fragment_fraction());
    m.buffering_ratio_by_rate.emplace_back(kbps, clip->buffering.ratio());
  }
  return m;
}

}  // namespace

double PlayerModel::mean_size_at(double kbps) const {
  return interpolate(mean_size_by_rate, kbps);
}
double PlayerModel::fragment_fraction_at(double kbps) const {
  return interpolate(fragment_fraction_by_rate, kbps);
}
double PlayerModel::buffering_ratio_at(double kbps) const {
  return interpolate(buffering_ratio_by_rate, kbps);
}

FlowModel FlowModel::fit(const StudyResults& study) {
  FlowModel model;
  model.rtt_ms = EmpiricalSampler(figures::rtt_samples_ms(study));
  model.real = fit_player(study, PlayerKind::kRealPlayer);
  model.media = fit_player(study, PlayerKind::kMediaPlayer);
  return model;
}

}  // namespace streamlab
