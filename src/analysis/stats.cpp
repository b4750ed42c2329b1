#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>

namespace streamlab {

SummaryStats SummaryStats::from(std::vector<double> values) {
  SummaryStats s;
  s.n = values.size();
  if (values.empty()) return s;

  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;

  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());

  if (values.size() > 1) {
    double ss = 0.0;
    for (double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
    s.standard_error = s.stddev / std::sqrt(static_cast<double>(values.size()));
  }
  return s;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<double> normalize_by_mean(const std::vector<double>& values) {
  if (values.empty()) return {};
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  if (mean == 0.0) return {};
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(v / mean);
  return out;
}

double ks_distance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  while (i < a.size() && j < b.size()) {
    // Advance past ties on both sides together so equal values never
    // produce a spurious step difference.
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    const double fa = static_cast<double>(i) / na;
    const double fb = static_cast<double>(j) / nb;
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

}  // namespace streamlab
