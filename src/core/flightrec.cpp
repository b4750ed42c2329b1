#include "core/flightrec.hpp"

#include <cstdio>

#include "obs/export.hpp"

namespace streamlab {
namespace {

std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string render_postmortem(const PostmortemContext& context,
                              const audit::AuditReport& report,
                              const obs::Obs* obs,
                              const obs::TrialTelemetry* telemetry,
                              std::size_t last_k) {
  using obs::json_escape;
  std::string out;

  const std::size_t retained = obs != nullptr ? obs->tracer().size() : 0;
  const std::uint64_t dropped = obs != nullptr ? obs->tracer().dropped() : 0;
  out += "{\"record\":\"header\",\"format\":\"streamlab-postmortem-v1\",\"trial\":" +
         std::to_string(context.trial_index) + ",\"seed\":" + std::to_string(context.seed) +
         ",\"reason\":\"" + json_escape(context.reason) + "\",\"config\":\"" +
         json_escape(context.config_hex) + "\",\"sim_events\":" + std::to_string(context.sim_events) +
         ",\"budget_exhausted\":" + (context.budget_exhausted ? "true" : "false") +
         ",\"trace_retained\":" + std::to_string(retained) +
         ",\"trace_dropped\":" + std::to_string(dropped) + "}\n";

  if (context.attempts > 0) {
    out += "{\"record\":\"worker\",\"attempts\":" + std::to_string(context.attempts) +
           ",\"exit_status\":" + std::to_string(context.worker_exit_status) +
           ",\"stderr_tail\":\"" + json_escape(context.stderr_tail) + "\"}\n";
  }

  out += "{\"record\":\"audit\",\"checks\":" + std::to_string(report.checks_performed) +
         ",\"violations\":" + std::to_string(report.total_violations) + ",\"summary\":\"" +
         json_escape(report.summary()) + "\"}\n";
  for (const audit::AuditViolation& v : report.violations) {
    out += "{\"record\":\"violation\",\"invariant\":\"";
    out += audit::to_string(v.invariant);
    out += "\",\"t\":" + fmt_g17(v.time.to_seconds()) + ",\"detail\":\"" + json_escape(v.detail) +
           "\",\"value\":" + fmt_g17(v.value) + ",\"limit\":" + fmt_g17(v.limit) + "}\n";
  }

  if (obs != nullptr) {
    for (const auto& [name, value] : obs->registry().counters()) {
      out += "{\"record\":\"metric\",\"kind\":\"counter\",\"name\":\"" + json_escape(name) +
             "\",\"value\":" + std::to_string(value) + "}\n";
    }
  }

  if (telemetry != nullptr) {
    for (const auto& [name, value] : telemetry->samples()) {
      out += "{\"record\":\"sample\",\"name\":\"" + json_escape(name) +
             "\",\"value\":" + fmt_g17(value) + "}\n";
    }
    for (const auto& [name, value] : telemetry->tallies()) {
      out += "{\"record\":\"tally\",\"name\":\"" + json_escape(name) +
             "\",\"value\":" + std::to_string(value) + "}\n";
    }
    for (const auto& [name, value] : telemetry->counters()) {
      out += "{\"record\":\"counter\",\"name\":\"" + json_escape(name) +
             "\",\"value\":" + std::to_string(value) + "}\n";
    }
  }

  if (obs != nullptr) {
    const obs::Tracer& tracer = obs->tracer();
    for (const obs::TraceRecord& r : tracer.last(last_k)) {
      out += "{\"record\":\"trace\",\"t\":" + fmt_g17(r.time.to_seconds()) + ",\"kind\":\"";
      out += obs::to_string(r.kind);
      out += "\",\"name\":\"" + json_escape(tracer.string(r.name)) + "\"";
      if (r.kind != obs::RecordKind::kCounter)
        out += ",\"track\":\"" + json_escape(tracer.string(r.track)) + "\"";
      if (r.span_id != 0) out += ",\"span\":" + std::to_string(r.span_id);
      out += ",\"value\":" + fmt_g17(r.value) + "}\n";
    }
  }

  return out;
}

}  // namespace streamlab
