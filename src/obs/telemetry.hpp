// Campaign telemetry: per-trial metric snapshots and their cross-trial fold.
//
// Lifecycle: each campaign trial runs with its own Obs; when the trial
// finishes, its Registry is collapsed into a TrialTelemetry — a compact,
// name-keyed record of scalar samples (→ QuantileSketch), integer tallies
// (→ LogHistogram) and summed counters. The record rides through
// TrialOutcome and the NDJSON resume manifest, and the coordinator folds it
// into a CampaignTelemetry in trial-index commit order. Because the
// aggregates hold integer bucket counts (see aggregate.hpp) and the fold
// runs in that one order, the folded state — and its serialized bytes — are
// identical at any worker count, whether the trials ran on threads or on
// distributed worker processes.
//
// Registry names are rolled up into stable metric *families* before the
// fold: per-instance name segments ("link.chain0-1.delivered",
// "player.wm.play_attempts") collapse to first + last segment
// ("link.delivered", "player.play_attempts") so campaigns aggregate across
// topologies with different instance labels.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"

namespace streamlab::obs {

/// One trial's metric snapshot. Cheap to copy, deterministic to serialize.
class TrialTelemetry {
 public:
  /// Scalar distribution sample (goodput, stall ms, ...): one value per
  /// trial, folded into a QuantileSketch across trials.
  void set_sample(std::string_view name, double value);
  /// Integer magnitude (events, packets lost): folded into a LogHistogram.
  void set_tally(std::string_view name, std::uint64_t value);
  /// Additive count: summed across trials.
  void add_counter(std::string_view name, std::uint64_t value);

  std::optional<double> sample(std::string_view name) const;
  std::optional<std::uint64_t> tally(std::string_view name) const;
  std::uint64_t counter(std::string_view name) const;

  const std::map<std::string, double, std::less<>>& samples() const { return samples_; }
  const std::map<std::string, std::uint64_t, std::less<>>& tallies() const { return tallies_; }
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const { return counters_; }
  bool empty() const { return samples_.empty() && tallies_.empty() && counters_.empty(); }

  /// "tt1|s:name=v,...|t:name=v,...|c:name=v,..." — single line, sorted
  /// names, no JSON metacharacters, so it embeds as a manifest string field.
  std::string serialize() const;
  /// Reads serialize()'s form back. Every number must span its whole token
  /// and fit its type, and a name may appear once per section; anything
  /// else is nullopt.
  static std::optional<TrialTelemetry> parse(std::string_view text);

  /// Collapses a trial Registry: counters summed per family (zero-valued
  /// counters dropped), histograms contribute `<family>` mean sample +
  /// `<family>.samples` counter.
  static TrialTelemetry from_registry(const Registry& registry);

  /// Rollup rule: names with three or more '.'-separated segments keep only
  /// the first and last segment; shorter names pass through.
  static std::string family(std::string_view name);

 private:
  std::map<std::string, double, std::less<>> samples_;
  std::map<std::string, std::uint64_t, std::less<>> tallies_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// The coordinator-side fold of many TrialTelemetry records.
class CampaignTelemetry {
 public:
  explicit CampaignTelemetry(double sketch_accuracy = 0.01) : accuracy_(sketch_accuracy) {}

  /// Folds one trial's snapshot. Called in trial-index commit order.
  void fold(const TrialTelemetry& trial);
  /// Coordinator-side health count (trials.completed, trials.quarantined).
  void add_counter(std::string_view name, std::uint64_t n = 1);

  std::uint64_t trials_folded() const { return trials_; }
  std::uint64_t counter(std::string_view name) const;
  const QuantileSketch* sketch(std::string_view name) const;
  const LogHistogram* tally(std::string_view name) const;

  /// Full deterministic text block — the byte-identity witness: equal
  /// campaigns produce equal bytes regardless of worker count.
  std::string serialize() const;
  /// Human-readable distribution digest (p50/p95 per sketch), deterministic.
  std::string summary() const;

 private:
  double accuracy_;
  std::uint64_t trials_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, QuantileSketch, std::less<>> sketches_;
  std::map<std::string, LogHistogram, std::less<>> tallies_;
};

}  // namespace streamlab::obs
