// Summary statistics and result digests used by every workload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// Median of the samples; 0 for an empty set.
double median(std::vector<double> values);

/// Smallest of the timings; 0 for an empty set. The throughput metrics
/// rest on it: on a shared host the same work runs at full speed for a
/// while, then up to twice as slow for seconds or tens of seconds while
/// neighbours load the machine (CPU time slows with wall time, so it is not
/// preemption). A median measures that mix; the fastest repetition measures
/// the program. Contention only slows, so there are no fast outliers.
double fastest(const std::vector<double>& times);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the rule Python's statistics.quantiles(values, n=4) uses
/// (the default "exclusive" method), so the benchmark's own spread figures
/// read the same as the ones computed from its output. Needs >= 2 samples;
/// a single sample yields that sample three times.
Quartiles quartiles(std::vector<double> values);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double percentile);

/// Nearest-rank percentile, or nullopt when fewer than `min_beyond`
/// samples lie beyond it — a tail figure resting on a handful of samples
/// is refused rather than reported.
std::optional<double> percentile(std::vector<double> values, double percentile,
                                 std::size_t min_beyond = 10);

struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
};

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least `min_beyond` samples beyond it; nullopt when even the
/// median lacks them.
std::optional<TailPercentile> highest_supported_percentile(std::vector<double> values,
                                                           std::size_t min_beyond = 10);

/// failed / attempted; a run that attempted nothing counts as fully failed.
double fail_ratio(std::uint64_t failed, std::uint64_t attempted);

/// FNV-1a over the canonical bytes of a result: the output-check witness.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size);
  Digest& u64(std::uint64_t v);
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  /// Hashes the bit pattern, so any change in a computed double shows.
  Digest& f64(double v);
  Digest& str(std::string_view s);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

}  // namespace e2ebench
