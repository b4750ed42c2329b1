// Summary statistics used throughout the figure builders.
#pragma once

#include <cstddef>
#include <vector>

namespace streamlab {

struct SummaryStats {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;       ///< sample standard deviation (n-1)
  double standard_error = 0.0;  ///< stddev / sqrt(n) — the error bars of Figs 14-15
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;

  static SummaryStats from(std::vector<double> values);
};

/// q-quantile (0..1) of a sample by linear interpolation; the input need not
/// be sorted.
double quantile(std::vector<double> values, double q);
/// quantile() of a sample already sorted ascending, without the copy and sort.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Divides every value by the sample mean — the normalisation of Figures 7
/// and 9. Returns an empty vector when the mean is zero.
std::vector<double> normalize_by_mean(const std::vector<double>& values);

/// Two-sample Kolmogorov-Smirnov distance (sup |F1 - F2|); the tracegen
/// module uses it to validate synthetic flows against measured ones.
double ks_distance(std::vector<double> a, std::vector<double> b);

}  // namespace streamlab
