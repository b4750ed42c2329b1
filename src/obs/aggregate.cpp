#include "obs/aggregate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace streamlab::obs {
namespace {

std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// LogHistogram

LogHistogram::LogHistogram(unsigned sub_bucket_bits) : bits_(sub_bucket_bits) {
  if (bits_ == 0 || bits_ > 16) throw std::invalid_argument("LogHistogram: sub_bucket_bits out of range");
}

std::size_t LogHistogram::bucket_index(std::uint64_t value, unsigned bits) {
  const std::uint64_t sub = 1ull << bits;
  if (value < sub) return static_cast<std::size_t>(value);
  // Octave `e` holds [2^e, 2^(e+1)); its 2^bits sub-buckets are addressed by
  // the mantissa bits directly below the leading one.
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(value));
  const std::uint64_t mantissa = (value >> (e - bits)) & (sub - 1);
  return static_cast<std::size_t>(((static_cast<std::uint64_t>(e) - bits + 1) << bits) + mantissa);
}

std::uint64_t LogHistogram::bucket_floor(std::size_t index, unsigned bits) {
  const std::uint64_t sub = 1ull << bits;
  if (index < sub) return index;
  const std::uint64_t block = static_cast<std::uint64_t>(index) >> bits;
  const std::uint64_t mantissa = index & (sub - 1);
  const unsigned e = static_cast<unsigned>(block) + bits - 1;
  // One past the top octave (asked for the ceiling of the last bucket).
  if (e >= 64) return ~0ull;
  return (1ull << e) | (mantissa << (e - bits));
}

void LogHistogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t idx = bucket_index(value, bits_);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  counts_[idx] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  sum_ += value * n;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  const double target = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t idx = 0; idx < counts_.size(); ++idx) {
    if (counts_[idx] == 0) continue;
    cum += counts_[idx];
    if (static_cast<double>(cum) > target) {
      const std::uint64_t lo = bucket_floor(idx, bits_);
      const std::uint64_t next_lo = bucket_floor(idx + 1, bits_);
      // Exact (unit-width) buckets report their value; wider buckets their
      // midpoint, in double space to dodge overflow in the top octave.
      const double mid = next_lo > lo + 1
                             ? (static_cast<double>(lo) + static_cast<double>(next_lo)) / 2.0
                             : static_cast<double>(lo);
      return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

std::string LogHistogram::serialize() const {
  std::string out = "logh1;bits=" + std::to_string(bits_) + ";n=" + std::to_string(count_) +
                    ";sum=" + std::to_string(sum_) + ";min=" + std::to_string(min()) +
                    ";max=" + std::to_string(max_) + ";b=";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += std::to_string(i);
    out += ':';
    out += std::to_string(counts_[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// QuantileSketch

namespace {
constexpr double kMinTrackable = 1e-9;
}

QuantileSketch::QuantileSketch(double relative_accuracy) : alpha_(relative_accuracy) {
  if (!(alpha_ > 0.0) || !(alpha_ < 1.0)) throw std::invalid_argument("QuantileSketch: accuracy out of (0,1)");
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

std::int32_t QuantileSketch::key_of(double value) const {
  return static_cast<std::int32_t>(std::ceil(std::log(value) / log_gamma_));
}

double QuantileSketch::value_of(std::int32_t key) const {
  // Midpoint (in relative terms) of bucket (gamma^(k-1), gamma^k].
  return 2.0 * std::pow(gamma_, static_cast<double>(key)) / (gamma_ + 1.0);
}

void QuantileSketch::record_n(double value, std::uint64_t n) {
  if (n == 0) return;
  if (!(value > kMinTrackable)) {
    // Negative, NaN, and sub-resolution values all land in the zero bucket;
    // the sketch tracks magnitudes, and campaign metrics are non-negative.
    zero_count_ += n;
  } else {
    buckets_[key_of(value)] += n;
  }
  count_ += n;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = zero_count_;
  if (static_cast<double>(cum) > target) return 0.0;
  for (const auto& [key, cnt] : buckets_) {
    cum += cnt;
    if (static_cast<double>(cum) > target) return value_of(key);
  }
  return buckets_.empty() ? 0.0 : value_of(buckets_.rbegin()->first);
}

std::string QuantileSketch::serialize() const {
  std::string out = "qsk1;a=" + fmt_g17(alpha_) + ";n=" + std::to_string(count_) +
                    ";z=" + std::to_string(zero_count_) + ";b=";
  bool first = true;
  for (const auto& [key, cnt] : buckets_) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(key);
    out += ':';
    out += std::to_string(cnt);
  }
  return out;
}

}  // namespace streamlab::obs
