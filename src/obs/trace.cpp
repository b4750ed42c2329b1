#include "obs/trace.hpp"

#include <algorithm>
#include <limits>

namespace streamlab::obs {

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kInstant: return "instant";
    case RecordKind::kSpanBegin: return "span-begin";
    case RecordKind::kSpanEnd: return "span-end";
    case RecordKind::kCounter: return "counter";
  }
  return "unknown";
}

Tracer::Tracer(Config config)
    : enabled_(config.enabled),
      capacity_(config.capacity > 0 ? config.capacity : 1),
      sample_interval_(config.sample_interval) {
  strings_.emplace_back();  // id 0 = empty string
  last_sample_.push_back(kNeverSampled);
}

std::uint16_t Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  if (strings_.size() >= std::numeric_limits<std::uint16_t>::max()) return 0;
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  last_sample_.push_back(kNeverSampled);
  intern_.emplace(std::string(s), id);
  return id;
}

void Tracer::reset_keep_interned() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  next_span_id_ = 1;
  open_spans_.clear();
  std::fill(last_sample_.begin(), last_sample_.end(), kNeverSampled);
}

void Tracer::push(const TraceRecord& rec) {
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  ring_[head_] = rec;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  dropped_counter_.add();
}

void Tracer::instant(std::uint16_t name, std::uint16_t track, SimTime now,
                     double value) {
  if (!enabled_) return;
  push(TraceRecord{now, RecordKind::kInstant, name, track, 0, value});
}

std::uint64_t Tracer::begin_span(std::uint16_t name, std::uint16_t track, SimTime now) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_span_id_++;
  open_spans_.emplace(id, OpenSpan{name, track});
  push(TraceRecord{now, RecordKind::kSpanBegin, name, track, id, 0.0});
  return id;
}

void Tracer::end_span(std::uint64_t span_id, SimTime now) {
  if (!enabled_ || span_id == 0) return;
  const auto it = open_spans_.find(span_id);
  if (it == open_spans_.end()) return;
  push(TraceRecord{now, RecordKind::kSpanEnd, it->second.name, it->second.track,
                   span_id, 0.0});
  open_spans_.erase(it);
}

void Tracer::sample_admit(std::uint16_t name, SimTime now, double value) {
  last_sample_[name] = now;
  push(TraceRecord{now, RecordKind::kCounter, name, 0, 0, value});
}

void Tracer::sample_always(std::uint16_t name, SimTime now, double value) {
  if (!enabled_) return;
  last_sample_[name] = now;
  push(TraceRecord{now, RecordKind::kCounter, name, 0, 0, value});
}

void Tracer::for_each(const std::function<void(const TraceRecord&)>& fn) const {
  if (ring_.size() < capacity_) {
    for (const TraceRecord& r : ring_) fn(r);
    return;
  }
  // Full ring: head_ is the oldest record.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    fn(ring_[(head_ + i) % capacity_]);
}

std::vector<TraceRecord> Tracer::last(std::size_t k) const {
  std::vector<TraceRecord> out;
  const std::size_t total = ring_.size();
  const std::size_t take = total < k ? total : k;
  out.reserve(take);
  std::size_t skip = total - take;
  for_each([&](const TraceRecord& r) {
    if (skip > 0) {
      --skip;
      return;
    }
    out.push_back(r);
  });
  return out;
}

}  // namespace streamlab::obs
