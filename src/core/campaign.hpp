// Resilient campaign runner: many turbulence trials, one trustworthy study.
//
// A campaign runs N TurbulenceScenarioConfig trials (seed = base_seed + i)
// with per-trial sim-event and wall-clock budgets, a fresh invariant auditor
// and determinism probe per trial, and exception containment: a trial that
// throws — or whose audit finds violations — is *quarantined* (its seed and
// cause recorded) while every completed trial's stats are salvaged into the
// study aggregate. An NDJSON resume manifest records one line per finished
// trial (seed, config digest, status, audit summary, salvage fields), flushed
// as each trial ends, so an interrupted campaign restarts from the first
// incomplete trial without re-running — and a manifest written under a
// different configuration is rejected outright.
//
// --verify-determinism mode runs each trial twice with the same seed and
// compares the replay digests event-for-event, reporting the index of the
// first divergent event when the runs part ways (see audit::DeterminismProbe).
//
// Campaigns run their trials on the ordered job pool (core/jobs.hpp) with
// `workers` runners: the calling thread plus `workers - 1` spawned threads.
// Trials share nothing — each
// owns a private EventLoop, Network, Rng, Auditor and DeterminismProbe, all
// created and destroyed on the thread that runs it — and the calling thread
// commits finished trials (manifest line, aggregate fold, quarantine count)
// strictly in trial-index order, so the manifest bytes, aggregate stats and
// quarantine records of a `workers=N` run are identical to a `workers=1` run
// of the same config. See DESIGN.md §10 for the isolation argument.
//
// The campaign_detail namespace at the bottom exposes the trial runner,
// manifest codec and ordered-commit sink to the distributed
// coordinator/worker layer (src/campaign/, DESIGN.md §14), which shards the
// same trials across child *processes* while preserving the byte-identical
// manifest contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/turbulence.hpp"
#include "obs/telemetry.hpp"

namespace streamlab {

struct CampaignProgress;

struct CampaignConfig {
  /// Scenario template. `seed`, `auditor` and `probe` are overwritten for
  /// each trial; the budgets (max_sim_events / max_wall_time) apply per
  /// trial. Leave `obs` unset for campaigns — one Obs context cannot span
  /// runs whose SimTime restarts at zero.
  TurbulenceScenarioConfig scenario;
  ClipInfo clip;
  std::size_t trials = 1;
  /// Trial i streams with seed base_seed + i.
  std::uint64_t base_seed = 1;
  /// NDJSON resume manifest path; empty = no manifest (and no resume).
  std::string manifest_path;
  /// Trial runners. The calling thread is always one of them and
  /// `workers - 1` threads are spawned beside it; 0 = one per hardware
  /// thread. At 1 the campaign is serial: each trial commits before the next
  /// is claimed. Results are committed in trial-index order regardless, so
  /// the manifest and aggregate are byte-identical across worker counts. Not
  /// part of the config digest: a manifest written serially resumes under
  /// any `workers`.
  std::size_t workers = 0;
  /// Run each trial twice with the same seed and compare replay digests.
  bool verify_determinism = false;
  /// Test-only: offsets the verification run's seed so the divergence
  /// reporting path can be exercised deliberately. Leave 0.
  std::uint64_t verify_seed_skew = 0;
  /// Test-only fault hook, invoked with each trial's auditor after the run
  /// and before the trial is judged (see audit::Auditor::force_violation) —
  /// how tests plant exactly one violating trial in a healthy campaign.
  std::function<void(audit::Auditor&, std::size_t index, std::uint64_t seed)>
      fault_hook;

  // --- Telemetry plane (observability; none of it enters the config digest
  // or perturbs the simulation, so manifests resume across these knobs) ---

  /// Give each trial its own Obs (metrics registry + small trace ring),
  /// snapshot the registry into TrialOutcome::telemetry at trial end, and
  /// fold cross-trial distributions at the coordinator. Ignored (treated as
  /// false) when `scenario.obs` is set — an external Obs keeps the legacy
  /// single-run contract.
  bool collect_telemetry = true;
  /// Trace ring capacity for per-trial Obs — also the last-K tail dumped to
  /// a quarantine post-mortem. Small by design: the ring only exists to
  /// feed the flight recorder.
  std::size_t flight_recorder_records = 256;
  /// Where quarantine post-mortems are written: `<prefix><seed>.ndjson`.
  /// Empty derives "<manifest_path>.postmortem-" when a manifest is set,
  /// otherwise post-mortems are skipped.
  std::string postmortem_prefix;
  /// Invoke `progress_hook` after every this-many trial commits (and once
  /// at campaign end). 0 disables progress reporting.
  std::size_t progress_every = 0;
  /// Rate-limited progress/health reporter, called on the coordinator
  /// thread in commit order.
  std::function<void(const CampaignProgress&)> progress_hook;

  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointed-at flag
  /// becomes true, no new trials are claimed, in-flight trials finish and
  /// commit (manifest line flushed, aggregate folded), and the campaign
  /// returns early with CampaignResult::interrupted set — so an interrupted
  /// study resumes from its manifest instead of losing completed trials.
  /// Null = never cancelled. The flag is only ever read; a signal handler
  /// may set it.
  const std::atomic<bool>* cancel = nullptr;
};

/// Snapshot handed to CampaignConfig::progress_hook. Wall-clock rates are
/// measured, not simulated — they vary run to run and never enter the
/// manifest or the telemetry fold.
struct CampaignProgress {
  std::size_t trials_total = 0;
  std::size_t trials_done = 0;  ///< committed so far (completed + quarantined)
  std::size_t completed = 0;
  std::size_t quarantined = 0;
  std::size_t resumed = 0;
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;  ///< committed non-resumed trials / wall time
  double eta_seconds = 0.0;     ///< remaining trials at the current rate
  /// Fraction of worker wall-capacity spent inside trials; 0 when unknown.
  double worker_utilization = 0.0;
  /// Live cross-trial fold; null when telemetry collection is off.
  const obs::CampaignTelemetry* telemetry = nullptr;
};

enum class TrialStatus : std::uint8_t { kCompleted, kQuarantined };
const char* to_string(TrialStatus status);

// The salvage metrics, each declared once as (type, member, manifest key),
// in manifest order: the manifest codec and the aggregate fold loop over
// this list, so a new metric takes one entry here plus the line in
// fill_salvage (campaign.cpp) that says where its value comes from.
#define STREAMLAB_TRIAL_METRICS(X)                                       \
  X(std::uint64_t, sessions, "sessions")                                 \
  X(std::uint64_t, sessions_completed, "sessions_completed")             \
  X(std::uint64_t, sessions_failed, "sessions_failed")                   \
  X(std::uint64_t, frames_rendered, "frames_rendered")                   \
  X(std::uint64_t, frames_dropped, "frames_dropped")                     \
  X(std::uint64_t, packets_received, "packets_received")                 \
  X(std::uint64_t, packets_lost, "packets_lost")                         \
  X(std::uint64_t, rebuffer_events, "rebuffers")                         \
  /* route-repair withdraw and restore transitions */                    \
  X(std::uint64_t, reroutes, "reroutes")                                 \
  X(std::uint64_t, route_restores, "route_restores")                     \
  X(std::uint64_t, failovers, "failovers") /* mirror failovers */        \
  /* loss repair (zero when the repair layer is disabled) */             \
  X(std::uint64_t, packets_recovered, "packets_recovered")               \
  X(std::uint64_t, nacks_sent, "nacks_sent")                             \
  X(std::uint64_t, retransmissions_sent, "retx_sent")                    \
  X(std::uint64_t, parity_packets, "parity_packets")                     \
  /* multipath (zero when striping is disabled) */                       \
  X(std::uint64_t, path_switches, "path_switches")                       \
  X(std::uint64_t, nack_suppressed, "nacks_suppressed")                  \
  /* stall time overlapping kRouterDown windows, and all stall time */   \
  X(Duration, router_down_stall, "router_down_stall_ns")                 \
  X(Duration, stall_time, "stall_ns")

/// Per-trial salvage metrics: what a manifest line keeps of a trial's run
/// (unlike TrialOutcome::result, they survive the round-trip) and what the
/// study aggregate sums.
struct TrialMetrics {
#define STREAMLAB_METRIC_MEMBER(type, member, key) type member{};
  STREAMLAB_TRIAL_METRICS(STREAMLAB_METRIC_MEMBER)
#undef STREAMLAB_METRIC_MEMBER

  /// Calls f(manifest_key, &TrialMetrics::member) for every metric, in
  /// manifest order.
  template <class F>
  static void for_each_metric(F&& f) {
#define STREAMLAB_METRIC_ENTRY(type, member, key) f(key, &TrialMetrics::member);
    STREAMLAB_TRIAL_METRICS(STREAMLAB_METRIC_ENTRY)
#undef STREAMLAB_METRIC_ENTRY
  }
};
#undef STREAMLAB_TRIAL_METRICS

/// One trial's ledger entry — also the unit the resume manifest stores.
struct TrialOutcome : TrialMetrics {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  TrialStatus status = TrialStatus::kCompleted;
  std::string reason;        ///< quarantine cause; empty when completed
  std::uint64_t checks = 0;  ///< audit checks performed
  std::uint64_t violations = 0;
  std::uint64_t sim_events = 0;
  bool budget_exhausted = false;
  std::uint64_t digest = 0;  ///< replay digest folded at the client NIC
  /// Index of the first divergent event (verify-determinism mode only).
  std::optional<std::uint64_t> divergence;
  /// Restored from the resume manifest rather than run in this process.
  bool from_manifest = false;
  /// Full run metrics; absent when the trial threw before collection or was
  /// restored from a manifest (whose lines keep only the aggregate fields).
  std::optional<TurbulenceRunResult> result;

  // Worker post-mortem evidence (distributed campaigns; see
  // src/campaign/distributed.hpp). Zero/empty for in-process trials, so a
  // flight-recorder reader can distinguish "trial is bad" (attempts==0 or
  // exit_status==0: the trial itself was judged) from "worker died"
  // (attempts>0 with a nonzero exit status: the process running it was
  // lost). Serialized into the manifest for quarantined records only —
  // completed lines stay byte-identical with the serial path regardless of
  // how many reassignments a trial survived.
  std::uint32_t attempts = 0;     ///< process-worker assignments consumed
  int worker_exit_status = 0;     ///< last worker's exit code, or 128+signal
  std::string stderr_tail;        ///< last bytes of the dead worker's stderr

  /// Metric snapshot folded into the campaign telemetry; survives the
  /// manifest round-trip. Absent when collection is off (or the manifest
  /// line predates telemetry).
  std::optional<obs::TrialTelemetry> telemetry;
  /// Rendered flight-recorder document (quarantined live trials only);
  /// written out by the coordinator, never stored in the manifest.
  std::string postmortem;
  /// Wall-clock nanoseconds the trial spent on its worker. Feeds the
  /// utilization figure in CampaignProgress only — never serialized
  /// (wall time is nondeterministic and would break manifest parity).
  std::uint64_t wall_ns = 0;
};

/// Study-level totals over every *completed* trial, live or restored.
struct CampaignAggregate : TrialMetrics {
  std::uint64_t trials = 0;

  void fold(const TrialOutcome& trial);
};

struct CampaignResult {
  std::vector<TrialOutcome> trials;
  CampaignAggregate aggregate;
  std::size_t completed = 0;
  std::size_t quarantined = 0;
  std::size_t resumed = 0;  ///< trials restored from the manifest
  /// Cross-trial distributions + health counters, folded in commit order;
  /// byte-identical (serialize()) at any worker count. Counts trials even
  /// when per-trial telemetry is disabled.
  obs::CampaignTelemetry telemetry;
  /// Flight-recorder files written this run, in trial order.
  std::vector<std::string> postmortem_paths;
  /// Cancelled via CampaignConfig::cancel before every trial committed.
  /// Whatever finished is flushed; re-running with the same manifest
  /// resumes from the first missing trial.
  bool interrupted = false;
  /// Torn trailing manifest lines tolerated during resume (0 or 1): a
  /// campaign killed mid-write leaves a truncated final NDJSON line, which
  /// is dropped with a warning and its trial re-run.
  std::size_t manifest_torn_lines = 0;

  // --- Distributed-execution health (filled by run_distributed_campaign;
  // all zero for in-process campaigns). Operational evidence only — none
  // of it enters the manifest for completed trials, so the determinism
  // contract is unaffected. ---
  std::size_t workers_lost = 0;      ///< worker processes that died/hung
  std::size_t worker_restarts = 0;   ///< replacement workers spawned
  std::size_t reassigned_trials = 0; ///< assignments redone on a new worker
  /// Total wall-clock ns between detecting a worker failure and committing
  /// the affected trial's reassigned result (mean = / reassigned_trials).
  std::uint64_t reassignment_latency_ns = 0;
  /// The whole fleet was lost and the remaining trials ran on the
  /// coordinator's in-process pool instead of aborting the study.
  bool degraded_to_in_process = false;

  bool ok() const { return quarantined == 0; }
  /// Seeds of every quarantined trial (the campaign's repro handles).
  std::vector<std::uint64_t> quarantined_seeds() const;
};

/// Digest of the campaign parameters under which trial results are
/// comparable; a resume manifest carrying a different digest is rejected.
std::uint64_t campaign_config_digest(const CampaignConfig& config);

/// Runs (or resumes) the campaign. Throws std::runtime_error when the
/// manifest at manifest_path was written under a different config digest or
/// cannot be parsed — or when `scenario.obs` is set and more than one trial
/// would run concurrently (an Obs is single-threaded and single-run; a
/// shared one across parallel trials would be a silent data race).
CampaignResult run_campaign(const CampaignConfig& config);

/// Shared internals of the campaign engine, exposed for the distributed
/// coordinator/worker split (src/campaign/). Everything here is the *same
/// code path* the in-process pool runs — that identity is what makes a
/// distributed campaign's manifest byte-identical to a serial run.
namespace campaign_detail {

/// Formats campaign_config_digest(config) as the 16-digit lower-case hex
/// string used in manifest lines and the worker hello handshake.
std::string config_hex(const CampaignConfig& config);

/// Serializes one trial outcome as its resume-manifest NDJSON line (no
/// trailing newline). Worker evidence fields (attempts, exit status,
/// stderr tail) are emitted for quarantined records only.
std::string manifest_line(const TrialOutcome& trial, const std::string& config_hex);

/// Parses one manifest line; throws std::runtime_error (tagged with
/// line_no) on malformed input or a config-digest mismatch. The returned
/// outcome has from_manifest=true.
TrialOutcome parse_manifest_line(const std::string& line, const std::string& config_hex,
                                 std::size_t line_no);

/// Runs trial `index` exactly as a pool worker would: fresh auditor +
/// determinism probe, quarantine judgment, salvage fold, telemetry
/// snapshot, post-mortem rendering. `scratch_obs` may be null (telemetry
/// off) or a reusable per-worker Obs shaped by trial_obs_config().
TrialOutcome run_trial(const CampaignConfig& config, std::size_t index,
                       const std::string& config_hex, obs::Obs* scratch_obs);

/// Shape of the reusable per-worker scratch Obs (trace ring sized for the
/// flight recorder).
obs::Obs::Config trial_obs_config(const CampaignConfig& config);

struct ManifestRead {
  std::map<std::size_t, TrialOutcome> restored;
  /// Torn trailing lines tolerated (0 or 1). A mid-write crash leaves a
  /// structurally truncated final line; it is dropped with a warning and
  /// the trial re-runs. Complete-but-wrong lines still throw.
  std::size_t torn_lines = 0;
};

/// Reads a resume manifest, tolerating a torn trailing NDJSON line. With
/// `repair_in_place` (the default) the torn bytes are truncated away — and
/// a missing final newline restored — so subsequent appends produce a
/// well-formed file. A missing file yields an empty result.
ManifestRead read_resume_manifest(const std::string& path, const std::string& config_hex,
                                  std::size_t max_trials, bool repair_in_place = true);

/// Ordered-commit sink shared by the in-process pool and the distributed
/// coordinator: opens the manifest for append, writes one line per fresh
/// outcome (flushed immediately), folds the aggregate + telemetry, writes
/// quarantine post-mortems, and drives the progress hook — all in strict
/// trial-index order. Feed it outcome 0, 1, 2, ... exactly once each.
class Committer {
 public:
  /// Throws when the manifest cannot be opened for append. `workers` is
  /// only reported through CampaignProgress.
  Committer(const CampaignConfig& config, std::string config_hex, std::size_t workers);

  /// Commits the next trial in index order. `wire_line` supplies literal
  /// manifest bytes to write instead of re-serializing `outcome` — the
  /// distributed coordinator passes the worker's own line through verbatim.
  /// Restored outcomes (from_manifest) fold without touching the manifest.
  void commit(TrialOutcome outcome, const std::string* wire_line = nullptr);

  std::size_t committed() const { return committed_; }
  /// Hands the accumulated result over; the committer is spent afterwards.
  CampaignResult finish();

 private:
  const CampaignConfig& config_;
  std::string config_hex_;
  std::size_t workers_;
  std::ofstream manifest_;
  std::string postmortem_prefix_;
  CampaignResult result_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t busy_ns_ = 0;
  std::size_t fresh_done_ = 0;
  std::size_t committed_ = 0;
};

}  // namespace campaign_detail

}  // namespace streamlab
