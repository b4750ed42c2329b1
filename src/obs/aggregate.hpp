// Campaign-scale aggregates: the counterpart of the fixed-bucket Histogram
// in metrics.hpp.
//
// A campaign folds one metric snapshot per trial at the coordinator, in
// trial-index commit order — the same determinism contract as the resume
// manifest. Everything here is therefore built from integer bucket counts:
// recording a value adds to one bucket, so the state after a fold depends
// only on which values were recorded, and the ordered commit makes the
// folded bytes identical at any worker count.
//
// Two shapes:
//  - LogHistogram: dense log-linear buckets over uint64 values (HDR-style:
//    exact below 2^bits, then `2^bits` sub-buckets per octave, ~500 buckets
//    for the full 64-bit range). For wide-range integer magnitudes — events
//    per trial, packets lost, queue depths.
//  - QuantileSketch: sparse DDSketch-style buckets with a relative-accuracy
//    guarantee: quantile(q) is within `relative_accuracy` of the true value
//    (rank-preserving, per the gamma-indexed bucket bound). For continuous
//    metrics — goodput, stall milliseconds, recovery ratios.
//
// Both serialize to a compact deterministic text form (sorted buckets):
// CampaignTelemetry::serialize embeds it, and it is the byte-identity
// witness of the fold. The manifest carries per-trial records, not these.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace streamlab::obs {

class LogHistogram {
 public:
  /// `sub_bucket_bits` log2 of the sub-buckets per octave; relative bucket
  /// width (hence worst-case quantile error) is 2^-bits.
  explicit LogHistogram(unsigned sub_bucket_bits = 3);

  void record(std::uint64_t value) { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded value; 0 when empty.
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  bool empty() const { return count_ == 0; }
  unsigned sub_bucket_bits() const { return bits_; }

  /// Value at quantile q in [0,1] (bucket midpoint, clamped to [min,max]);
  /// 0 when empty.
  double quantile(double q) const;

  /// "logh1;bits=B;n=N;sum=S;min=M;max=X;b=idx:count,..." — deterministic
  /// (buckets ascending, zero buckets omitted).
  std::string serialize() const;

  static std::size_t bucket_index(std::uint64_t value, unsigned bits);
  /// Smallest value mapping to bucket `index`.
  static std::uint64_t bucket_floor(std::size_t index, unsigned bits);

 private:
  unsigned bits_;
  std::vector<std::uint64_t> counts_;  ///< grown lazily to the top bucket
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class QuantileSketch {
 public:
  /// quantile() is within `relative_accuracy` (alpha) of the true value.
  explicit QuantileSketch(double relative_accuracy = 0.01);

  void record(double value) { record_n(value, 1); }
  void record_n(double value, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double relative_accuracy() const { return alpha_; }

  /// Value at quantile q in [0,1]; 0 when empty. Values below the minimum
  /// trackable magnitude (1e-9) report as 0.
  double quantile(double q) const;

  /// "qsk1;a=A;n=N;z=Z;b=key:count,..." — deterministic (keys ascending).
  std::string serialize() const;

 private:
  std::int32_t key_of(double value) const;
  double value_of(std::int32_t key) const;

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;  ///< values below the trackable minimum
  std::map<std::int32_t, std::uint64_t> buckets_;
};

}  // namespace streamlab::obs
