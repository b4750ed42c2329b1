#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <tuple>

#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace e2ebench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_ns_(enabled ? steady_ns() : 0) {}

std::int64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

int SpanRecorder::begin(std::string_view name) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = std::this_thread::get_id();
  const auto [track, inserted] = tracks_.try_emplace(tid, static_cast<int>(tracks_.size()));
  std::vector<int>& open = open_[tid];
  Span span;
  span.name = std::string(name);
  span.start_ns = start;
  span.end_ns = start;
  span.parent = open.empty() ? -1 : open.back();
  span.track = track->second;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
  std::vector<int>& open = open_[std::this_thread::get_id()];
  // Scopes close innermost-first; erase by value anyway so a mismatched
  // end cannot corrupt the parent chain of later spans.
  open.erase(std::remove(open.begin(), open.end(), id), open.end());
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Span> SpanRecorder::spans_since(std::size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    Span s = spans_[i];
    s.parent = s.parent >= static_cast<int>(first) ? s.parent - static_cast<int>(first) : -1;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  int tracks = 0;
  for (const Span& s : all) tracks = std::max(tracks, s.track + 1);

  // Replay into an obs tracer so the file has exactly the layout the
  // simulator's own trace exports use. Begins and ends are emitted in time
  // order; at equal times ends come first, an outer span begins before an
  // inner one, and an inner span ends before an outer one, so every track
  // nests.
  streamlab::obs::Obs::Config config;
  config.metrics = false;
  config.trace_capacity = 2 * all.size() + 16;
  streamlab::obs::Obs obs(config);
  auto& tracer = obs.tracer();
  std::vector<std::uint16_t> track_ids;
  for (int t = 0; t < tracks; ++t)
    track_ids.push_back(tracer.intern(t == 0 ? "main" : "thread-" + std::to_string(t)));

  struct Edge {
    std::int64_t time;
    int order;  // 0 = end, 1 = begin
    std::int64_t tiebreak;
    int span;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    edges.push_back({s.start_ns, 1, -s.end_ns, static_cast<int>(i)});
    edges.push_back({s.end_ns, 0, -s.start_ns, static_cast<int>(i)});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.time, a.order, a.tiebreak, a.span) <
           std::tie(b.time, b.order, b.tiebreak, b.span);
  });
  std::vector<std::uint64_t> ids(all.size(), 0);
  for (const Edge& e : edges) {
    const Span& s = all[static_cast<std::size_t>(e.span)];
    const streamlab::SimTime at(e.time);
    if (e.order == 1) {
      ids[static_cast<std::size_t>(e.span)] = tracer.begin_span(
          tracer.intern(s.name), track_ids[static_cast<std::size_t>(s.track)], at);
    } else {
      tracer.end_span(ids[static_cast<std::size_t>(e.span)], at);
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  streamlab::obs::write_chrome_trace(obs, out);
  return static_cast<bool>(out.flush());
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += static_cast<double>(self[i]) / 1e6;
  return out;
}

std::map<std::string, double> total_ms_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += static_cast<double>(s.duration_ns()) / 1e6;
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e6);
  return out;
}

}  // namespace e2ebench
