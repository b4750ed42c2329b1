// Wall-clock spans recorded by the benchmark around its calls into each
// streamlab module. Spans stay in memory while the workload runs; self
// times are derived from them afterwards, and they are written once, at
// exit, in the Chrome trace format obs already exports.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace e2ebench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span on the same thread
  int track = 0;              ///< one per recording thread, in first-use order

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A disabled recorder reads no clock and keeps nothing: the untraced runs
/// pass through the same code at the cost of one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread, nested in that thread's innermost
  /// open span. Returns its index, or -1 when disabled.
  int begin(std::string_view name);
  /// Closes the span `begin` returned; -1 is ignored.
  void end(int id);

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name)
        : recorder_(recorder), id_(recorder.begin(name)) {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  /// Copy of every span recorded so far (closed or not).
  std::vector<Span> spans() const;
  /// The spans recorded from index `first` on, with parent indices rebased
  /// to the returned vector (a parent recorded earlier becomes -1).
  std::vector<Span> spans_since(std::size_t first) const;
  std::size_t size() const;

  /// Writes the spans as a Chrome trace-event JSON file (open it in
  /// ui.perfetto.dev). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  const bool enabled_;
  const std::int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                            // guarded by mu_
  std::map<std::thread::id, std::vector<int>> open_;   // guarded by mu_
  std::map<std::thread::id, int> tracks_;              // guarded by mu_
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per span name, in milliseconds.
std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

/// Total duration per span name, in milliseconds.
std::map<std::string, double> total_ms_by_name(const std::vector<Span>& spans);

/// Durations of every span with this name, in milliseconds.
std::vector<double> durations_ms(const std::vector<Span>& spans, std::string_view name);

}  // namespace e2ebench
