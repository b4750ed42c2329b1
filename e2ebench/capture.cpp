// Workload `capture`: the Ethereal side of the paper. Set-up runs the study
// with its captures kept and writes each clip pair's capture to a pcap
// file. Each query is one lab_shark-style pass over one file: read the
// pcap, dissect every record, compile one of the paper's display filters
// and select with it, then build the conversation table. Queries cycle
// through every (file, filter) combination.
#include <optional>

#include "alloc_counter.hpp"
#include "core/study.hpp"
#include "dissect/conversations.hpp"
#include "filter/evaluator.hpp"
#include "pcap/pcap_file.hpp"
#include "recorded.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

using namespace streamlab;

/// The questions the paper asks of its captures: fragments (Fig 5), the
/// MediaPlayer 1514-byte groups (Fig 4), each player's flow, and the
/// ping/tracert probes (Figs 1-2).
const std::vector<std::string> kFilters = {
    "ip.frag_offset > 0",
    "ip.flags.mf == 1",
    "frame.len == 1514 && udp.port == 1755",
    "udp.port == 1755",
    "udp.port == 7070",
    "icmp",
};

struct CaptureFile {
  std::string path;
  std::vector<std::size_t> expected;  ///< select() count per filter, in memory
};

struct Setup {
  std::vector<CaptureFile> files;
  std::vector<CaptureTrace> traces;  ///< the in-memory captures behind the files
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// Runs the study with captures kept and writes one pcap per clip pair.
Setup write_captures(std::uint64_t seed, const std::string& dir, Checks& checks) {
  StudyConfig config;
  config.seed = seed;
  config.keep_captures = true;
  StudyResults study = run_full_study(config);
  Setup setup;
  for (std::size_t i = 0; i < study.runs.size(); ++i) {
    CaptureTrace& trace = *study.runs[i].real.capture;
    CaptureFile file;
    file.path = dir + "/capture-" + std::to_string(i) + ".pcap";
    checks.expect(write_pcap_file(file.path, trace), "capture: cannot write " + file.path);
    setup.frames += trace.size();
    setup.bytes += trace.total_bytes();
    setup.files.push_back(std::move(file));
    setup.traces.push_back(std::move(trace));
  }
  return setup;
}

/// The oracle: every filter over the in-memory dissection of each capture.
void expected_counts(Setup& setup) {
  for (std::size_t i = 0; i < setup.traces.size(); ++i) {
    const auto packets = dissect_trace(setup.traces[i]);
    for (const std::string& expr : kFilters)
      setup.files[i].expected.push_back(
          filter::DisplayFilter::compile(expr)->select(packets).size());
  }
  setup.traces.clear();
}

struct QueryStats {
  std::uint64_t packets = 0;
  std::uint64_t matches = 0;
  std::uint64_t read_ns = 0;
  std::uint64_t dissect_ns = 0;
  std::uint64_t dissect_allocs = 0;
  std::uint64_t compile_ns = 0;
  std::uint64_t select_ns = 0;
  std::uint64_t conv_ns = 0;
  std::vector<double> compile_us;
  /// Per file: the packets one query dissects and every query's time in ms.
  std::vector<std::uint64_t> file_packets;
  std::vector<std::vector<double>> file_ms;
};

std::uint64_t ns_since(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t).count());
}

/// One lab_shark pass. Returns false when any step fails or the match count
/// disagrees with the in-memory oracle.
bool query(const CaptureFile& file, std::size_t filter_index, SpanRecorder& spans,
           QueryStats& stats) {
  const SpanRecorder::Scope root(spans, "capture.query");
  auto t = Clock::now();
  int span = spans.begin("pcap.read");
  const Expected<CaptureTrace> trace = read_pcap_file(file.path);
  spans.end(span);
  stats.read_ns += ns_since(t);
  if (!trace) return false;

  t = Clock::now();
  span = spans.begin("dissect");
  const AllocScope allocs;
  const std::vector<DissectedPacket> packets = dissect_trace(*trace);
  stats.dissect_allocs += allocs.delta().calls;
  spans.end(span);
  stats.dissect_ns += ns_since(t);

  t = Clock::now();
  span = spans.begin("filter.compile");
  const auto compiled = filter::DisplayFilter::compile(kFilters[filter_index]);
  spans.end(span);
  const std::uint64_t compile_ns = ns_since(t);
  stats.compile_ns += compile_ns;
  stats.compile_us.push_back(static_cast<double>(compile_ns) / 1e3);
  if (!compiled) return false;

  t = Clock::now();
  span = spans.begin("filter.select");
  const std::size_t matches = compiled->select(packets).size();
  spans.end(span);
  stats.select_ns += ns_since(t);

  t = Clock::now();
  span = spans.begin("dissect.conversations");
  ConversationTable table;
  table.add_all(packets);
  spans.end(span);
  stats.conv_ns += ns_since(t);

  stats.packets += packets.size();
  stats.matches += matches;
  return matches == file.expected[filter_index] && table.size() > 0;
}

/// Packets of one query on every file over the sum of each file's fastest
/// query (see `fastest` in stats.hpp). Per file, not per (file, filter)
/// pair: a file comes round every 13 queries, a pair only every 78, too
/// rarely for its fastest to find the host at full speed. Filters cost
/// little beside reading and dissecting, and filter.ns_per_pkt traces them.
double packets_per_s(const QueryStats& stats) {
  double packets = 0.0, fastest_ms = 0.0;
  for (std::size_t f = 0; f < stats.file_ms.size(); ++f) {
    packets += static_cast<double>(stats.file_packets[f]);
    fastest_ms += fastest(stats.file_ms[f]);
  }
  return packets / (fastest_ms / 1e3);
}

std::uint64_t match_digest(const Setup& setup) {
  Digest d;
  for (const CaptureFile& f : setup.files)
    for (const std::size_t n : f.expected) d.u64(n);
  return d.value();
}

}  // namespace

Report run_capture(const RunOptions& options) {
  Report report;
  Checks& checks = report.checks;
  // Set-up runs a whole study, so three repeats before measuring already
  // span seconds; between queries they would shorten the query window.
  // Later repeats rewrite the same files and keep nothing, so one copy of
  // the captures is live at a time and peak RSS stays the program's.
  Setup setup;
  SetupTimer setup_timer([&] {
    Setup fresh = write_captures(options.seed, options.out_dir, checks);
    if (setup.files.empty()) setup = std::move(fresh);
  });
  setup_timer.repeat(1);
  expected_counts(setup);  // frees the first repeat's captures
  setup_timer.repeat(2);
  const std::uint64_t digest = match_digest(setup);
  if (options.seed == recorded::kCaptureSeed)
    checks.expect(digest == recorded::kCaptureMatchDigest,
                  "capture: match-count digest " + hex64(digest) + " != recorded");
  report.info = {{"files", std::to_string(setup.files.size())},
                 {"filters", std::to_string(kFilters.size())},
                 {"frames", std::to_string(setup.frames)},
                 {"match_digest", hex64(digest)}};

  // Query k reads file k mod F with filter (k / F) mod Q, so every pair of
  // file and filter comes round in turn; every file is read at least once.
  const auto run_queries = [&](double budget, SpanRecorder& spans, QueryStats& stats,
                               std::vector<double>& times_ms) {
    const std::size_t files = setup.files.size();
    stats.file_packets.assign(files, 0);
    stats.file_ms.assign(files, {});
    const auto start = Clock::now();
    for (std::size_t k = 0; k < files || seconds_since(start) < budget; ++k) {
      const CaptureFile& file = setup.files[k % files];
      const std::size_t filter_index = (k / files) % kFilters.size();
      const std::uint64_t packets_before = stats.packets;
      const auto t0 = Clock::now();
      const bool ok = query(file, filter_index, spans, stats);
      times_ms.push_back(seconds_since(t0) * 1e3);
      stats.file_packets[k % files] = stats.packets - packets_before;
      stats.file_ms[k % files].push_back(times_ms.back());
      checks.expect(ok, "capture: query on " + file.path + " with \"" + kFilters[filter_index] +
                            "\" failed or disagreed with the in-memory dissection");
    }
  };

  SpanRecorder untraced(false);
  QueryStats stats;
  std::vector<double> times_ms;
  run_queries(options.trace ? options.seconds / 2 : options.seconds, untraced, stats, times_ms);
  report.ops_per_s = packets_per_s(stats);
  report.setup_s = setup_timer.median_s();
  report.info.push_back({"setup_repeats", std::to_string(setup_timer.repeats())});
  report.figures.push_back({"capture_pkts_per_s", report.ops_per_s, "packets/s", ""});
  report.figures.push_back(timing_figure("capture_query_ms_p50", times_ms, "ms"));
  add_tail_figure(report.figures, "capture_query_ms", times_ms, "ms");
  report.info.push_back({"queries", std::to_string(times_ms.size())});
  if (!options.trace) return report;

  SpanRecorder spans(true);
  QueryStats traced;
  std::vector<double> traced_ms;
  run_queries(options.seconds / 2, spans, traced, traced_ms);
  const double packets = static_cast<double>(traced.packets);
  auto& m = report.layers;
  m["pcap.frames"] = static_cast<double>(setup.frames);
  m["pcap.bytes"] = static_cast<double>(setup.bytes);
  m["pcap.read_ns_per_pkt"] = static_cast<double>(traced.read_ns) / packets;
  m["dissect.ms"] = static_cast<double>(traced.dissect_ns) / 1e6 /
                   static_cast<double>(traced_ms.size());
  m["dissect.ns_per_pkt"] = static_cast<double>(traced.dissect_ns) / packets;
  m["dissect.allocs_per_pkt"] = static_cast<double>(traced.dissect_allocs) / packets;
  m["dissect.conv_ns_per_pkt"] = static_cast<double>(traced.conv_ns) / packets;
  m["filter.compile_us"] = median(traced.compile_us);
  m["filter.ns_per_pkt"] = static_cast<double>(traced.select_ns) / packets;
  m["filter.match_ratio"] = static_cast<double>(traced.matches) / packets;
  // Compared as packet rates: the two phases cover different query mixes,
  // so their median query times are not comparable.
  m["trace_overhead_pct"] = overhead_pct(report.ops_per_s, packets_per_s(traced));
  report.figures.push_back({"trace_overhead_pct", m["trace_overhead_pct"], "%", ""});
  spans.write_chrome_trace(options.out_dir + "/trace-capture.json");
  return report;
}

}  // namespace e2ebench
