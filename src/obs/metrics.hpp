// Metrics registry: named counters, gauges and fixed-bucket histograms with
// handle-based updates.
//
// The registry exists so hot paths never pay for name lookup: a component
// registers its metrics once (a map lookup, cold) and receives a handle that
// is a bare pointer into storage with stable addresses. An update through a
// handle is one predictable branch plus one add — and when the registry is
// disabled (or the component was never given one) the handle's slot is null
// and the update is just the branch.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace streamlab::obs {

/// Monotonically increasing count. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) {
    if (slot_ != nullptr) *slot_ += n;
  }
  std::uint64_t value() const { return slot_ ? *slot_ : 0; }
  bool live() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Point-in-time signed level (queue depth, scaling level, window size).
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) {
    if (slot_ != nullptr) *slot_ = v;
  }
  void add(std::int64_t d) {
    if (slot_ != nullptr) *slot_ += d;
  }
  std::int64_t value() const { return slot_ ? *slot_ : 0; }
  bool live() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::int64_t* slot) : slot_(slot) {}
  std::int64_t* slot_ = nullptr;
};

/// Fixed-width-bucket histogram data. `buckets.back()` is the overflow
/// bucket; values below zero clamp into bucket 0.
struct HistogramData {
  double bucket_width = 1.0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t total = 0;
  double sum = 0.0;
};

class Histogram {
 public:
  Histogram() = default;

  void record(double v) {
    if (data_ == nullptr) return;
    std::size_t idx = 0;
    if (v > 0.0) {
      const double scaled = v / data_->bucket_width;
      idx = scaled >= static_cast<double>(data_->buckets.size() - 1)
                ? data_->buckets.size() - 1
                : static_cast<std::size_t>(scaled);
    }
    ++data_->buckets[idx];
    ++data_->total;
    data_->sum += v;
  }
  const HistogramData* data() const { return data_; }
  bool live() const { return data_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

/// Owns every metric of one run. Registering the same name twice returns a
/// handle onto the same storage, so independent components may share a
/// metric without coordination.
class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_; }

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bucket_count` regular buckets of `bucket_width` plus one overflow
  /// bucket. Re-registering an existing histogram keeps its original shape.
  Histogram histogram(std::string_view name, double bucket_width,
                      std::size_t bucket_count);

  // --- Snapshot accessors (export / tests; cold) ---
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, std::int64_t>> gauges() const;
  std::vector<std::pair<std::string, const HistogramData*>> histograms() const;

  // --- Copy-free visitors (per-trial snapshot path; names stay borrowed) ---
  template <typename Fn>
  void visit_counters(Fn&& fn) const {
    for (const auto& [name, idx] : counter_index_) fn(name, counter_values_[idx]);
  }
  template <typename Fn>
  void visit_histograms(Fn&& fn) const {
    for (const auto& [name, idx] : histogram_index_) fn(name, histogram_values_[idx]);
  }

  /// Zeroes every value while keeping names, storage and handed-out handles
  /// valid. Re-registering after a reset is a map hit, not an allocation —
  /// the campaign runner reuses one registry across trials so per-trial
  /// metric setup does not tax the hot loop.
  void reset_values();

 private:
  bool enabled_;
  // Values live in deques: push_back never moves existing elements, so the
  // raw pointers handed out in handles stay valid for the registry's life.
  std::map<std::string, std::size_t, std::less<>> counter_index_;
  std::deque<std::uint64_t> counter_values_;
  std::map<std::string, std::size_t, std::less<>> gauge_index_;
  std::deque<std::int64_t> gauge_values_;
  std::map<std::string, std::size_t, std::less<>> histogram_index_;
  std::deque<HistogramData> histogram_values_;
};

}  // namespace streamlab::obs
