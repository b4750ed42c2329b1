// Trace and metrics export.
//
// Three formats, all streamed to std::ostream so multi-million-record
// traces never materialise as one string:
//  - Chrome trace-event JSON (load in ui.perfetto.dev or chrome://tracing):
//    spans as B/E pairs, instants as "i", counter samples as "C", with
//    thread-name metadata so tracks are labelled.
//  - NDJSON: one self-describing JSON object per record, for ad-hoc jq /
//    pandas processing.
//  - Time-series CSV (time_s,metric,value): every counter sample in time
//    order — the format the paper-figure tooling already consumes.
// export_trace() writes all of them plus a final metrics snapshot CSV into
// a directory, alongside the core/export files of the same run.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/obs.hpp"

namespace streamlab::obs {

/// Chrome trace-event JSON ("traceEvents" array form). Timestamps are sim
/// microseconds. Spans still open at export time are emitted as begins
/// without ends, which viewers render as running to the end of the trace.
void write_chrome_trace(const Obs& obs, std::ostream& out);

/// One JSON object per line: a header line carrying retained/dropped record
/// counts, then {"t":<s>,"kind":...,"name":...,...} per record.
void write_ndjson(const Obs& obs, std::ostream& out);

/// Counter samples only, long form: time_s,metric,value (time-ordered).
void write_timeseries_csv(const Obs& obs, std::ostream& out);

/// Final registry snapshot: kind,name,arg,value rows for every counter and
/// histogram bucket.
void write_metrics_csv(const Obs& obs, std::ostream& out);

/// Writes trace.json, trace.ndjson, timeseries.csv and metrics.csv into
/// `directory` (created if needed). Returns the number of files written.
int export_trace(const Obs& obs, const std::string& directory);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view s);

}  // namespace streamlab::obs
