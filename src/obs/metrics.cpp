#include "obs/metrics.hpp"

#include <algorithm>

namespace streamlab::obs {

Counter Registry::counter(std::string_view name) {
  if (!enabled_) return Counter{};
  auto it = counter_index_.find(name);
  if (it == counter_index_.end()) {
    it = counter_index_.emplace(std::string(name), counter_values_.size()).first;
    counter_values_.push_back(0);
  }
  return Counter(&counter_values_[it->second]);
}

Histogram Registry::histogram(std::string_view name, double bucket_width,
                              std::size_t bucket_count) {
  if (!enabled_) return Histogram{};
  auto it = histogram_index_.find(name);
  if (it == histogram_index_.end()) {
    it = histogram_index_.emplace(std::string(name), histogram_values_.size()).first;
    HistogramData data;
    data.bucket_width = bucket_width > 0.0 ? bucket_width : 1.0;
    data.buckets.assign(bucket_count + 1, 0);  // +1 overflow
    histogram_values_.push_back(std::move(data));
  }
  return Histogram(&histogram_values_[it->second]);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counter_index_.size());
  for (const auto& [name, idx] : counter_index_)
    out.emplace_back(name, counter_values_[idx]);
  return out;
}

void Registry::reset_values() {
  for (auto& v : counter_values_) v = 0;
  for (auto& h : histogram_values_) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.total = 0;
    h.sum = 0.0;
  }
}

std::vector<std::pair<std::string, const HistogramData*>> Registry::histograms() const {
  std::vector<std::pair<std::string, const HistogramData*>> out;
  out.reserve(histogram_index_.size());
  for (const auto& [name, idx] : histogram_index_)
    out.emplace_back(name, &histogram_values_[idx]);
  return out;
}

}  // namespace streamlab::obs
