// Quarantine flight recorder: renders one trial's post-mortem as NDJSON.
//
// When a campaign quarantines a trial (audit violations, determinism
// divergence, budget exhaustion, or a thrown scenario), the worker has the
// only copy of the evidence — the trial's Obs ring, audit report and metric
// snapshot die with the trial state. render_postmortem() serializes that
// evidence into an NDJSON document the coordinator writes to a per-seed
// file next to the manifest, so a 10^5-trial campaign's failures are
// debuggable without re-running anything.
//
// Line shapes (every line is one JSON object tagged by "record"):
//   header    trial/seed/reason/config digest + trace retained/dropped
//   audit     check + violation totals and the one-line summary
//   violation one retained AuditViolation (invariant, sim time, detail)
//   metric    one raw registry counter (full per-instance names)
//   sample / tally / counter   the rolled-up TrialTelemetry snapshot
//   trace     one of the last-K Tracer records, oldest first
#pragma once

#include <cstdint>
#include <string>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "sim/audit.hpp"

namespace streamlab {

struct PostmortemContext {
  std::size_t trial_index = 0;
  std::uint64_t seed = 0;
  std::string reason;       ///< quarantine reason recorded in the manifest
  std::string config_hex;   ///< campaign config digest (hex64)
  std::uint64_t sim_events = 0;
  bool budget_exhausted = false;
  // Distributed-worker evidence (zero/empty for in-process trials). When
  // attempts > 0 the post-mortem gains a "worker" record distinguishing
  // "trial is bad" from "worker died": how many process attempts the trial
  // consumed, the last worker's wait status (exit code, or 128+signal),
  // and the tail of its stderr.
  std::uint32_t attempts = 0;
  int worker_exit_status = 0;
  std::string stderr_tail;
};

/// Renders the post-mortem document. `obs` and `telemetry` may be null
/// (telemetry disabled / trial threw before instrumentation); the header
/// and audit lines are always present. `last_k` bounds the trace tail.
std::string render_postmortem(const PostmortemContext& context,
                              const audit::AuditReport& report,
                              const obs::Obs* obs,
                              const obs::TrialTelemetry* telemetry,
                              std::size_t last_k);

}  // namespace streamlab
