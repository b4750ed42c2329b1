#include "obs/export.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>

#include "util/strings.hpp"

namespace streamlab::obs {
namespace {

// Sim nanoseconds -> trace-event microseconds (the unit Chrome/Perfetto
// expect in "ts").
std::string ts_us(SimTime t) {
  return fmt_double(static_cast<double>(t.ns()) / 1e3, 3);
}

std::string ts_seconds(SimTime t) { return fmt_double(t.to_seconds(), 6); }

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(const Obs& obs, std::ostream& out) {
  const Tracer& tracer = obs.tracer();

  // Pre-pass: which tracks appear, so each gets a thread_name metadata
  // record (tid = track id + 1; tid 0 is reserved for counter events).
  std::set<std::uint16_t> tracks;
  tracer.for_each([&](const TraceRecord& r) {
    if (r.kind != RecordKind::kCounter) tracks.insert(r.track);
  });

  // traceRetained/traceDropped surface ring truncation: a wrapped ring would
  // otherwise read as a complete timeline of the run.
  out << "{\"displayTimeUnit\":\"ms\",\"traceRetained\":" << tracer.size()
      << ",\"traceDropped\":" << tracer.dropped() << ",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const std::uint16_t track : tracks) {
    sep();
    const std::string& name = tracer.string(track);
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (track + 1)
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(name.empty() ? "main" : name) << "\"}}";
  }

  tracer.for_each([&](const TraceRecord& r) {
    sep();
    switch (r.kind) {
      case RecordKind::kInstant:
        out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << (r.track + 1) << ",\"ts\":"
            << ts_us(r.time) << ",\"s\":\"t\",\"name\":\""
            << json_escape(tracer.string(r.name)) << "\",\"args\":{\"value\":"
            << fmt_double(r.value, 6) << "}}";
        break;
      case RecordKind::kSpanBegin:
        out << "{\"ph\":\"B\",\"pid\":1,\"tid\":" << (r.track + 1) << ",\"ts\":"
            << ts_us(r.time) << ",\"name\":\"" << json_escape(tracer.string(r.name))
            << "\"}";
        break;
      case RecordKind::kSpanEnd:
        out << "{\"ph\":\"E\",\"pid\":1,\"tid\":" << (r.track + 1) << ",\"ts\":"
            << ts_us(r.time) << ",\"name\":\"" << json_escape(tracer.string(r.name))
            << "\"}";
        break;
      case RecordKind::kCounter:
        out << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << ts_us(r.time)
            << ",\"name\":\"" << json_escape(tracer.string(r.name))
            << "\",\"args\":{\"value\":" << fmt_double(r.value, 6) << "}}";
        break;
    }
  });
  out << "\n]}\n";
}

void write_ndjson(const Obs& obs, std::ostream& out) {
  const Tracer& tracer = obs.tracer();
  out << "{\"header\":\"streamlab-trace-v1\",\"records\":" << tracer.size()
      << ",\"dropped\":" << tracer.dropped() << "}\n";
  tracer.for_each([&](const TraceRecord& r) {
    out << "{\"t\":" << ts_seconds(r.time) << ",\"kind\":\"" << to_string(r.kind)
        << "\",\"name\":\"" << json_escape(tracer.string(r.name)) << "\"";
    if (r.kind != RecordKind::kCounter)
      out << ",\"track\":\"" << json_escape(tracer.string(r.track)) << "\"";
    if (r.span_id != 0) out << ",\"span\":" << r.span_id;
    out << ",\"value\":" << fmt_double(r.value, 6) << "}\n";
  });
}

void write_timeseries_csv(const Obs& obs, std::ostream& out) {
  const Tracer& tracer = obs.tracer();
  out << "time_s,metric,value\n";
  tracer.for_each([&](const TraceRecord& r) {
    if (r.kind != RecordKind::kCounter) return;
    out << ts_seconds(r.time) << "," << tracer.string(r.name) << ","
        << fmt_double(r.value, 6) << "\n";
  });
}

void write_metrics_csv(const Obs& obs, std::ostream& out) {
  out << "kind,name,arg,value\n";
  for (const auto& [name, value] : obs.registry().counters())
    out << "counter," << name << ",," << value << "\n";
  for (const auto& [name, data] : obs.registry().histograms()) {
    for (std::size_t i = 0; i + 1 < data->buckets.size(); ++i) {
      if (data->buckets[i] == 0) continue;
      out << "histogram_bucket," << name << ","
          << fmt_double(static_cast<double>(i) * data->bucket_width, 6) << ","
          << data->buckets[i] << "\n";
    }
    if (data->buckets.back() != 0)
      out << "histogram_bucket," << name << ",overflow," << data->buckets.back()
          << "\n";
    out << "histogram_total," << name << ",," << data->total << "\n";
    out << "histogram_sum," << name << ",," << fmt_double(data->sum, 6) << "\n";
  }
  out << "trace,records,," << obs.tracer().size() << "\n";
  out << "trace,dropped,," << obs.tracer().dropped() << "\n";
}

int export_trace(const Obs& obs, const std::string& directory) {
  std::filesystem::create_directories(directory);
  int written = 0;
  const auto write = [&](const std::string& name, auto writer) {
    std::ofstream out(directory + "/" + name);
    if (!out) return;
    writer(obs, out);
    if (out) ++written;
  };
  write("trace.json", write_chrome_trace);
  write("trace.ndjson", write_ndjson);
  write("timeseries.csv", write_timeseries_csv);
  write("metrics.csv", write_metrics_csv);
  return written;
}

}  // namespace streamlab::obs
