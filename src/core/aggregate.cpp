#include "core/aggregate.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/stats.hpp"

namespace streamlab {

AggregateResult run_aggregate_experiment(const AggregateConfig& config) {
  std::vector<SessionSpec> specs;
  for (const auto& id : config.clip_ids) {
    const auto clip = find_clip(id);
    if (!clip) continue;
    const std::uint64_t index = specs.size();
    specs.push_back({*clip, config.seed ^ index,
                     static_cast<std::uint16_t>(20000 + index)});
  }

  ExperimentConfig experiment;
  experiment.path = config.path;
  experiment.seed = config.seed;
  experiment.wm = config.wm;
  experiment.rm = config.rm;
  experiment.bandwidth_window = config.bandwidth_window;
  const StreamRunResult run = stream_sessions(specs, /*probe_path=*/false, experiment);

  AggregateResult result;
  for (const ClipRunResult& s : run.sessions) {
    AggregateSessionSummary summary;
    summary.clip = s.clip;
    summary.packets = s.flow.size();
    summary.mean_rate_kbps = s.flow.mean_rate_kbps();
    summary.fragment_fraction = s.flow.fragment_fraction();
    summary.frame_rate = s.tracker.average_frame_rate;
    summary.reception_quality = s.tracker.reception_quality();
    result.sessions.push_back(summary);
  }

  // Boundary-level aggregate: every inbound packet regardless of flow. Each
  // inbound frame lands in exactly one session's flow (the servers are
  // distinct hosts, the client ports differ, and trailing fragments match
  // on source), so the flows merged in time order are the boundary trace,
  // with each packet's wire length the captured frame's original length.
  std::vector<FlowPacket> boundary;
  for (const ClipRunResult& s : run.sessions)
    boundary.insert(boundary.end(), s.flow.packets().begin(), s.flow.packets().end());
  std::stable_sort(boundary.begin(), boundary.end(),
                   [](const FlowPacket& a, const FlowPacket& b) { return a.time < b.time; });
  result.total_packets = boundary.size();
  std::vector<double> gaps;
  std::optional<SimTime> prev;
  std::optional<SimTime> first, last;
  std::uint64_t total_bytes = 0;
  for (const FlowPacket& p : boundary) {
    if (!first) first = p.time;
    last = p.time;
    total_bytes += p.wire_length;
    if (prev) gaps.push_back((p.time - *prev).to_seconds());
    prev = p.time;
  }
  if (first && last && *last > *first) {
    const double duration = (*last - *first).to_seconds();
    result.aggregate_mean_kbps = static_cast<double>(total_bytes) * 8.0 / duration / 1000.0;

    // Windowed timeline over the whole boundary trace.
    const double win = config.bandwidth_window.to_seconds();
    std::size_t i = 0;
    for (double w = 0.0; w < duration; w += win) {
      std::uint64_t bytes = 0;
      while (i < boundary.size() && (boundary[i].time - *first).to_seconds() < w + win) {
        bytes += boundary[i].wire_length;
        ++i;
      }
      const double kbps = static_cast<double>(bytes) * 8.0 / win / 1000.0;
      result.total_bandwidth_timeline.emplace_back(w, kbps);
      result.aggregate_peak_kbps = std::max(result.aggregate_peak_kbps, kbps);
    }
  }
  const auto gap_stats = SummaryStats::from(gaps);
  result.interarrival_cv =
      gap_stats.mean > 0.0 ? gap_stats.stddev / gap_stats.mean : 0.0;
  return result;
}

}  // namespace streamlab
