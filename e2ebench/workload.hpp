// The four closed-loop batch workloads and what they hand back to main.cpp.
// Each runs single operations back to back (the next starts when the last
// finishes) until its time budget is spent, checks every output, and
// reports its numbers; see README.md for what each one exercises.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;      ///< measuring budget of this run
  bool trace = false;         ///< add the traced phase and per-layer metrics
  std::string out_dir;        ///< scratch files and the trace file go here
  unsigned threads = 1;       ///< nproc: the most threads the load may use
};

/// Output checks. Every expect() is one attempted operation; a false one is
/// one failed operation and is described in `failures`.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
    return ok;
  }
  /// Operations whose failure is already counted elsewhere (trials run).
  void add_operations(std::uint64_t n, std::uint64_t failed_ops, const std::string& what) {
    attempted += n;
    failed += failed_ops;
    if (failed_ops > 0) failures.push_back(what);
  }
};

struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed after the unit
};

/// A timing figure: the median of `samples` with its quartiles and sample
/// count, so a reader sees the run's own spread.
inline NamedValue timing_figure(const std::string& name, const std::vector<double>& samples,
                                const std::string& unit) {
  const Quartiles q = quartiles(samples);
  return {name, q.median, unit,
          "(q1 " + std::to_string(q.q1) + ", q3 " + std::to_string(q.q3) + ", n " +
              std::to_string(samples.size()) + ")"};
}

/// The tail-latency figure: p95 when at least ten samples lie beyond it,
/// else the highest percentile that has them (named for what it is).
inline void add_tail_figure(std::vector<NamedValue>& figures, const std::string& stem,
                            const std::vector<double>& samples, const std::string& unit) {
  const std::string n = "n " + std::to_string(samples.size());
  if (const auto p95 = percentile(samples, 95.0)) {
    figures.push_back({stem + "_p95", *p95, unit, "(" + n + ")"});
  } else if (const auto tail = highest_supported_percentile(samples);
             tail && tail->percentile > 50.0) {
    char label[16];
    std::snprintf(label, sizeof label, "_p%g", tail->percentile);
    figures.push_back({stem + label, tail->value, unit, "(too few samples for p95: " + n + ")"});
  }
}

struct Report {
  Checks checks;
  // The metrics every workload puts in its result line (BENCHMARK.json).
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  /// The workload's own end-to-end figures under their descriptive names
  /// (paper_s, campaign_trials_per_s, ...), printed ahead of the result.
  std::vector<NamedValue> figures;
  /// Per-layer metrics of the traced phase, keyed by BENCHMARK.json name.
  std::map<std::string, double> layers;
  /// Workload sizes and output digests, recorded in the run's metadata line.
  std::vector<std::pair<std::string, std::string>> info;
};

/// Times the workload's set-up; setup_s is the median of its repeats. The
/// host's speed shifts by up to half for seconds at a time, so repeats
/// bunched at the start of a run time only one of its phases: after the
/// first few, they can be spread across the run, between operations.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}

  /// Runs set-up `n` times now.
  void repeat(int n) {
    for (int i = 0; i < n; ++i) {
      const auto start = Clock::now();
      setup_();
      times_.push_back(seconds_since(start));
    }
    last_ = Clock::now();
  }

  /// Call between operations: one repeat per whole `interval_s` of time
  /// since the last repeat.
  void between_operations(double interval_s) {
    const int due = static_cast<int>(seconds_since(last_) / interval_s);
    if (due > 0) repeat(due);
  }

  double median_s() const { return median(times_); }
  std::size_t repeats() const { return times_.size(); }

 private:
  std::function<void()> setup_;
  std::vector<double> times_;
  Clock::time_point last_ = Clock::now();
};

/// Percent by which time `slower` exceeds time `base`. For rates pass them
/// swapped, (base rate, slowed rate): a time ratio is the inverse rate ratio.
inline double overhead_pct(double slower, double base) {
  return base > 0.0 ? 100.0 * (slower / base - 1.0) : 0.0;
}

Report run_paper(const RunOptions& options);
Report run_campaign_workload(const RunOptions& options);
Report run_fleet_workload(const RunOptions& options);
Report run_capture(const RunOptions& options);

}  // namespace e2ebench
