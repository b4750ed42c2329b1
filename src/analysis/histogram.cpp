#include "analysis/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/stats.hpp"

namespace streamlab {

Histogram::Histogram(double bin_width, double origin)
    : width_(bin_width > 0 ? bin_width : 1.0), origin_(origin) {}

std::int64_t Histogram::index_of(double value) const {
  return static_cast<std::int64_t>(std::floor((value - origin_) / width_));
}

void Histogram::add(double value) {
  const std::int64_t idx = index_of(value);
  auto it = std::lower_bound(counts_.begin(), counts_.end(), idx,
                             [](const auto& pair, std::int64_t i) { return pair.first < i; });
  if (it != counts_.end() && it->first == idx)
    ++it->second;
  else
    counts_.insert(it, {idx, 1});
  ++total_;
}

void Histogram::add_all(const std::vector<double>& values) {
  for (double v : values) add(v);
}

std::vector<Histogram::Bin> Histogram::bins() const {
  std::vector<Bin> out;
  if (counts_.empty()) return out;
  const std::int64_t lo = counts_.front().first;
  const std::int64_t hi = counts_.back().first;
  std::size_t cursor = 0;
  for (std::int64_t i = lo; i <= hi; ++i) {
    Bin b;
    b.lower = origin_ + static_cast<double>(i) * width_;
    b.center = b.lower + width_ / 2.0;
    if (cursor < counts_.size() && counts_[cursor].first == i) {
      b.count = counts_[cursor].second;
      ++cursor;
    }
    b.probability = total_ == 0 ? 0.0
                                : static_cast<double>(b.count) / static_cast<double>(total_);
    out.push_back(b);
  }
  return out;
}

Histogram::Bin Histogram::mode() const {
  Bin best;
  for (const auto& b : bins())
    if (b.count > best.count) best = b;
  return best;
}

double Histogram::mass_in(double lo, double hi) const {
  double mass = 0.0;
  for (const auto& b : bins()) {
    if (b.lower >= lo && b.lower + width_ <= hi) mass += b.probability;
  }
  return mass;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> values) {
  std::vector<CdfPoint> out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Collapse runs of equal values into their final (highest) probability.
    if (i + 1 < values.size() && values[i + 1] == values[i]) continue;
    out.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

std::vector<CdfPoint> cdf_at_quantiles(const std::vector<double>& values, int points) {
  std::vector<CdfPoint> out;
  if (values.empty() || points < 2) return out;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double p = static_cast<double>(i) / (points - 1);
    out.push_back({quantile_sorted(sorted, p), p});
  }
  return out;
}

}  // namespace streamlab
