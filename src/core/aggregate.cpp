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
  experiment.keep_capture = true;  // the boundary statistics read every record
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

  // Boundary-level aggregate: every inbound packet regardless of flow.
  const std::vector<CaptureRecord>& records = run.capture->records();
  result.total_packets = records.size();
  std::vector<double> gaps;
  std::optional<SimTime> prev;
  std::optional<SimTime> first, last;
  std::uint64_t total_bytes = 0;
  for (const CaptureRecord& p : records) {
    if (!first) first = p.timestamp;
    last = p.timestamp;
    total_bytes += p.original_length;
    if (prev) gaps.push_back((p.timestamp - *prev).to_seconds());
    prev = p.timestamp;
  }
  if (first && last && *last > *first) {
    const double duration = (*last - *first).to_seconds();
    result.aggregate_mean_kbps = static_cast<double>(total_bytes) * 8.0 / duration / 1000.0;

    // Windowed timeline over the whole boundary trace.
    const double win = config.bandwidth_window.to_seconds();
    std::size_t i = 0;
    for (double w = 0.0; w < duration; w += win) {
      std::uint64_t bytes = 0;
      while (i < records.size() &&
             (records[i].timestamp - *first).to_seconds() < w + win) {
        bytes += records[i].original_length;
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
