#include "core/campaign.hpp"

#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/flightrec.hpp"
#include "obs/obs.hpp"

namespace streamlab {
namespace {

// --- Config digest (FNV-1a over the parameters that shape trial results) ---

struct Digester {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

void fold_episode(Digester& d, const FaultEpisode& e) {
  d.u64(static_cast<std::uint64_t>(e.kind));
  d.i64(e.router_index);
  d.u64(e.detour ? 1 : 0);
  d.i64(e.start.ns());
  d.i64(e.duration.ns());
  d.i64(e.bandwidth.bits_per_second());
  d.i64(e.extra_delay.ns());
  d.f64(e.loss_probability);
  d.f64(e.gilbert.p_good_to_bad);
  d.f64(e.gilbert.p_bad_to_good);
  d.f64(e.gilbert.loss_good);
  d.f64(e.gilbert.loss_bad);
}

// --- NDJSON helpers (hand-rolled: the repo carries no JSON dependency) ---

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Value of `"key":` in a one-line JSON object: unescaped content for
/// strings, the raw token for numbers. nullopt when the key is absent.
std::optional<std::string> json_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return std::nullopt;
  if (line[pos] == '"') {
    std::string out;
    for (++pos; pos < line.size() && line[pos] != '"'; ++pos) {
      char c = line[pos];
      if (c == '\\' && pos + 1 < line.size()) {
        c = line[++pos];
        if (c == 'n') c = '\n';
        else if (c == 'r') c = '\r';
        else if (c == 't') c = '\t';
      }
      out += c;
    }
    return out;
  }
  const std::size_t end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return std::nullopt;
  std::string out = line.substr(pos, end - pos);
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

namespace campaign_detail {

std::string config_hex(const CampaignConfig& config) {
  return hex64(campaign_config_digest(config));
}

std::string manifest_line(const TrialOutcome& t, const std::string& config_hex) {
  std::string line = "{";
  const auto num = [&line](const char* key, std::uint64_t v) {
    line += "\"" + std::string(key) + "\":" + std::to_string(v) + ",";
  };
  num("trial", t.index);
  num("seed", t.seed);
  line += "\"config\":\"" + config_hex + "\",";
  line += "\"status\":\"" + std::string(to_string(t.status)) + "\",";
  line += "\"reason\":\"" + json_escape(t.reason) + "\",";
  num("checks", t.checks);
  num("violations", t.violations);
  num("sim_events", t.sim_events);
  num("budget_exhausted", t.budget_exhausted ? 1 : 0);
  line += "\"digest\":\"" + hex64(t.digest) + "\",";
  line += "\"divergence\":" +
          std::to_string(t.divergence ? static_cast<std::int64_t>(*t.divergence) : -1) +
          ",";
  num("sessions", t.sessions);
  num("sessions_completed", t.sessions_completed);
  num("sessions_failed", t.sessions_failed);
  num("frames_rendered", t.frames_rendered);
  num("frames_dropped", t.frames_dropped);
  num("packets_received", t.packets_received);
  num("packets_lost", t.packets_lost);
  num("rebuffers", t.rebuffer_events);
  num("reroutes", t.reroutes);
  num("route_restores", t.route_restores);
  num("failovers", t.failovers);
  num("packets_recovered", t.packets_recovered);
  num("nacks_sent", t.nacks_sent);
  num("retx_sent", t.retransmissions_sent);
  num("parity_packets", t.parity_packets);
  num("path_switches", t.path_switches);
  num("nacks_suppressed", t.nack_suppressed);
  line += "\"router_down_stall_ns\":" + std::to_string(t.router_down_stall.ns()) + ",";
  line += "\"stall_ns\":" + std::to_string(t.stall_time.ns());
  if (t.status == TrialStatus::kQuarantined) {
    // Worker post-mortem evidence rides quarantined records only: completed
    // lines must stay byte-identical with the serial path no matter how
    // many process-worker reassignments the trial survived.
    line += ",\"attempts\":" + std::to_string(t.attempts);
    line += ",\"worker_exit_status\":" + std::to_string(t.worker_exit_status);
    line += ",\"stderr_tail\":\"" + json_escape(t.stderr_tail) + "\"";
  }
  // Optional trailing field so manifests from pre-telemetry builds (and
  // collect_telemetry=false runs) parse identically.
  if (t.telemetry && !t.telemetry->empty())
    line += ",\"telemetry\":\"" + json_escape(t.telemetry->serialize()) + "\"";
  line += "}";
  return line;
}

TrialOutcome parse_manifest_line(const std::string& line, const std::string& config_hex,
                                 std::size_t line_no) {
  const auto fail = [line_no](const std::string& why) {
    throw std::runtime_error("resume manifest line " + std::to_string(line_no) + ": " +
                             why);
  };
  const auto config = json_value(line, "config");
  if (!config) fail("missing config digest");
  if (*config != config_hex)
    fail("config digest mismatch (manifest " + *config + ", campaign " + config_hex +
         "): refusing to mix trials from different configurations");
  const auto status = json_value(line, "status");
  if (!status) fail("missing status");
  // Numeric fields: absent or empty reads as `fallback`; anything else must
  // be a whole number that fits the field, or the line is rejected.
  const auto number = [&](const std::string& key, auto fallback, int base = 10) {
    decltype(fallback) out = fallback;
    const auto v = json_value(line, key);
    if (!v || v->empty()) return out;
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, out, base);
    if (ec != std::errc() || ptr != end)
      fail("bad number for \"" + key + "\": '" + *v + "'");
    return out;
  };
  const auto u64 = [&](const char* key) { return number(key, std::uint64_t{0}); };
  const auto i64 = [&](const char* key) { return number(key, std::int64_t{0}); };

  TrialOutcome t;
  t.index = u64("trial");
  t.seed = u64("seed");
  if (*status == to_string(TrialStatus::kCompleted)) {
    t.status = TrialStatus::kCompleted;
  } else if (*status == to_string(TrialStatus::kQuarantined)) {
    t.status = TrialStatus::kQuarantined;
  } else {
    fail("unknown status '" + *status + "'");
  }
  t.reason = json_value(line, "reason").value_or("");
  t.checks = u64("checks");
  t.violations = u64("violations");
  t.sim_events = u64("sim_events");
  t.budget_exhausted = u64("budget_exhausted") != 0;
  t.digest = number("digest", std::uint64_t{0}, 16);
  if (const std::int64_t div = number("divergence", std::int64_t{-1}); div >= 0)
    t.divergence = static_cast<std::uint64_t>(div);
  t.from_manifest = true;
  t.sessions = u64("sessions");
  t.sessions_completed = u64("sessions_completed");
  t.sessions_failed = u64("sessions_failed");
  t.frames_rendered = u64("frames_rendered");
  t.frames_dropped = u64("frames_dropped");
  t.packets_received = u64("packets_received");
  t.packets_lost = u64("packets_lost");
  t.rebuffer_events = u64("rebuffers");
  t.reroutes = u64("reroutes");
  t.route_restores = u64("route_restores");
  t.failovers = u64("failovers");
  t.packets_recovered = u64("packets_recovered");
  t.nacks_sent = u64("nacks_sent");
  t.retransmissions_sent = u64("retx_sent");
  t.parity_packets = u64("parity_packets");
  t.path_switches = u64("path_switches");
  t.nack_suppressed = u64("nacks_suppressed");
  t.router_down_stall = Duration::nanos(i64("router_down_stall_ns"));
  t.stall_time = Duration::nanos(i64("stall_ns"));
  if (t.status == TrialStatus::kQuarantined) {
    t.attempts = static_cast<std::uint32_t>(u64("attempts"));
    t.worker_exit_status = static_cast<int>(i64("worker_exit_status"));
    t.stderr_tail = json_value(line, "stderr_tail").value_or("");
  }
  if (const auto telemetry = json_value(line, "telemetry"); telemetry && !telemetry->empty()) {
    auto parsed = obs::TrialTelemetry::parse(*telemetry);
    if (!parsed) fail("unparseable telemetry snapshot");
    t.telemetry = std::move(*parsed);
  }
  return t;
}

}  // namespace campaign_detail

namespace {

// --- Trial execution ---

/// Copies the per-session metrics a manifest line can carry (and the
/// aggregate folds) out of the full run result.
void fill_salvage(TrialOutcome& t) {
  if (!t.result) return;
  const auto fold_session = [&t](const std::optional<SessionRecoveryMetrics>& m) {
    if (!m) return;
    ++t.sessions;
    if (m->completed) ++t.sessions_completed;
    if (m->session_failed()) ++t.sessions_failed;
    t.frames_rendered += m->frames_rendered;
    t.frames_dropped += m->frames_dropped;
    t.packets_received += m->packets_received;
    t.packets_lost += m->packets_lost;
    t.rebuffer_events += m->rebuffer_events;
    t.stall_time = t.stall_time + m->stall_time;
    t.failovers += m->failovers;
    t.router_down_stall = t.router_down_stall + m->stall_during_router_down;
    t.packets_recovered += m->packets_recovered;
    t.nacks_sent += m->nacks_sent;
    t.retransmissions_sent += m->retransmissions_sent;
    t.parity_packets += m->parity_packets;
    t.path_switches += m->path_switches;
    t.nack_suppressed += m->nack_suppressed;
  };
  fold_session(t.result->real);
  fold_session(t.result->media);
  t.reroutes = t.result->reroutes;
  t.route_restores = t.result->route_restores;
}

/// Derives the per-trial scalar samples/tallies the cross-trial
/// distributions track, then folds in the rolled-up registry snapshot.
obs::TrialTelemetry snapshot_trial(const TrialOutcome& t, const ClipInfo& clip,
                                   const obs::Obs* trial_obs) {
  obs::TrialTelemetry out;
  if (trial_obs != nullptr) out = obs::TrialTelemetry::from_registry(trial_obs->registry());
  if (t.result) {
    std::uint64_t wire_bytes = 0;
    double latency_sum = 0.0;
    std::size_t latency_sessions = 0;
    const auto scan = [&](const std::optional<SessionRecoveryMetrics>& m) {
      if (!m) return;
      wire_bytes += m->total_wire_bytes;
      if (m->packets_recovered > 0) {
        latency_sum += m->repair_latency_mean_ms;
        ++latency_sessions;
      }
    };
    scan(t.result->real);
    scan(t.result->media);
    if (clip.length.ns() > 0)
      out.set_sample("trial.goodput_kbps",
                     static_cast<double>(wire_bytes) * 8.0 / 1000.0 / clip.length.to_seconds());
    out.set_sample("trial.stall_ms", t.stall_time.to_millis());
    const std::uint64_t loss_denominator = t.packets_lost + t.packets_recovered;
    out.set_sample("trial.recovery_ratio",
                   loss_denominator > 0
                       ? static_cast<double>(t.packets_recovered) / static_cast<double>(loss_denominator)
                       : 0.0);
    if (latency_sessions > 0)
      out.set_sample("trial.repair_latency_ms", latency_sum / static_cast<double>(latency_sessions));
    out.set_tally("trial.sim_events", t.sim_events);
    out.set_tally("trial.packets_lost", t.packets_lost);
    out.set_tally("trial.rebuffers", t.rebuffer_events);
    out.set_tally("trial.reroutes", t.reroutes);
  }
  return out;
}

}  // namespace

namespace campaign_detail {

obs::Obs::Config trial_obs_config(const CampaignConfig& config) {
  obs::Obs::Config obs_config;
  obs_config.trace_capacity =
      config.flight_recorder_records > 0 ? config.flight_recorder_records : 1;
  return obs_config;
}

TrialOutcome run_trial(const CampaignConfig& config, std::size_t index,
                       const std::string& config_hex, obs::Obs* scratch_obs) {
  TrialOutcome t;
  t.index = index;
  t.seed = config.base_seed + index;
  const auto wall_start = std::chrono::steady_clock::now();

  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  probe.enable_recording(config.verify_determinism);

  // Scratch Obs: metric snapshot source + flight-recorder tail. Each worker
  // owns one and resets it between trials, so registry maps and the intern
  // table are built once per worker, not once per trial — the reset restores
  // the exact just-constructed state, keeping trial output byte-identical to
  // a fresh Obs. Runs that pass their own scenario.obs keep the legacy
  // single-run contract.
  const bool collect = config.collect_telemetry &&
                       config.scenario.obs == nullptr && scratch_obs != nullptr;
  obs::Obs* trial_obs = collect ? scratch_obs : nullptr;
  if (collect) trial_obs->reset_for_reuse();

  TurbulenceScenarioConfig scenario = config.scenario;
  scenario.seed = t.seed;
  scenario.auditor = &auditor;
  scenario.probe = &probe;
  if (collect) scenario.obs = trial_obs;

  try {
    TurbulenceRunResult run = run_turbulence_clip(config.clip, scenario);
    t.sim_events = run.sim_events;
    t.budget_exhausted = run.budget_exhausted;
    t.result = std::move(run);
    t.digest = probe.digest();

    if (config.verify_determinism) {
      audit::Auditor replay_auditor;
      audit::DeterminismProbe replay_probe;
      replay_probe.enable_recording(true);
      TurbulenceScenarioConfig replay = scenario;
      replay.seed = t.seed + config.verify_seed_skew;
      replay.auditor = &replay_auditor;
      replay.probe = &replay_probe;
      // The replay must not pollute the primary run's Obs (rate-limiter
      // state, double-counted metrics); divergence detection needs only the
      // probes.
      replay.obs = nullptr;
      run_turbulence_clip(config.clip, replay);
      if (probe.digest() != replay_probe.digest() ||
          probe.events() != replay_probe.events())
        t.divergence = audit::first_divergence(probe, replay_probe)
                           .value_or(std::min(probe.events(), replay_probe.events()));
    }

    if (config.fault_hook) config.fault_hook(auditor, index, t.seed);
  } catch (const std::exception& e) {
    t.status = TrialStatus::kQuarantined;
    t.reason = std::string("exception: ") + e.what();
  } catch (...) {
    t.status = TrialStatus::kQuarantined;
    t.reason = "exception: unknown";
  }

  t.checks = auditor.report().checks_performed;
  t.violations = auditor.report().total_violations;
  if (t.status == TrialStatus::kCompleted) {
    if (!auditor.report().clean()) {
      t.status = TrialStatus::kQuarantined;
      t.reason = "audit: " + auditor.report().summary();
    } else if (t.divergence) {
      t.status = TrialStatus::kQuarantined;
      t.reason =
          "determinism: runs diverge at event #" + std::to_string(*t.divergence);
    }
  }
  if (t.status == TrialStatus::kCompleted) fill_salvage(t);

  if (collect) t.telemetry = snapshot_trial(t, config.clip, trial_obs);
  if (t.status == TrialStatus::kQuarantined) {
    // Render the flight-recorder document here, while the evidence (Obs
    // ring, audit report) is still alive; the coordinator only writes the
    // bytes to disk.
    PostmortemContext context;
    context.trial_index = t.index;
    context.seed = t.seed;
    context.reason = t.reason;
    context.config_hex = config_hex;
    context.sim_events = t.sim_events;
    context.budget_exhausted = t.budget_exhausted;
    t.postmortem = render_postmortem(context, auditor.report(), trial_obs,
                                     t.telemetry ? &*t.telemetry : nullptr,
                                     config.flight_recorder_records);
  }
  t.wall_ns = static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - wall_start)
                                             .count());
  return t;
}

ManifestRead read_resume_manifest(const std::string& path, const std::string& config_hex,
                                  std::size_t max_trials, bool repair_in_place) {
  ManifestRead out;
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return out;  // no manifest yet: nothing to resume
    content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // `good_end` tracks the byte offset just past the last intact line, so a
  // torn tail can be truncated away before the campaign appends new lines.
  std::size_t pos = 0, line_no = 0, good_end = 0;
  bool torn = false, missing_final_newline = false;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool has_newline = nl != std::string::npos;
    const std::size_t end = has_newline ? nl : content.size();
    const std::size_t next = has_newline ? nl + 1 : content.size();
    std::string line = content.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_no;
    if (line.empty()) {
      good_end = next;
      pos = next;
      continue;
    }
    try {
      TrialOutcome t = parse_manifest_line(line, config_hex, line_no);
      if (t.index < max_trials) out.restored.insert_or_assign(t.index, std::move(t));
      good_end = next;
      missing_final_newline = !has_newline;
    } catch (const std::exception& e) {
      // A crash mid-`write(2)` leaves a structurally truncated final line:
      // no trailing newline, or a line that never reached its closing
      // brace. Tolerate exactly that shape — drop the bytes, warn, and let
      // the trial re-run. A *complete* final line that fails to parse (or
      // carries a foreign config digest) is still a hard error: that is
      // corruption or a different study, not a torn write.
      const bool structurally_torn = !has_newline || line.back() != '}';
      if (next >= content.size() && structurally_torn) {
        ++out.torn_lines;
        torn = true;
        std::fprintf(stderr,
                     "campaign: resume manifest %s line %zu is torn "
                     "(mid-write crash?); dropping it and re-running the trial: %s\n",
                     path.c_str(), line_no, e.what());
      } else {
        throw;
      }
    }
    pos = next;
  }

  if (repair_in_place) {
    if (torn) {
      // Cut the torn bytes so the append stream starts on a line boundary;
      // leaving them would glue the next manifest line onto the stump.
      std::error_code ec;
      std::filesystem::resize_file(path, good_end, ec);
      if (ec)
        throw std::runtime_error("cannot truncate torn resume manifest " + path + ": " +
                                 ec.message());
    } else if (missing_final_newline) {
      // Intact data, lost newline (killed between the two writes): restore
      // the separator so appended lines stay well-formed.
      std::ofstream fix(path, std::ios::app | std::ios::binary);
      fix << '\n';
    }
  }
  return out;
}

Committer::Committer(const CampaignConfig& config, std::string config_hex,
                     std::size_t workers)
    : config_(config),
      config_hex_(std::move(config_hex)),
      workers_(workers),
      start_(std::chrono::steady_clock::now()) {
  if (!config_.manifest_path.empty()) {
    manifest_.open(config_.manifest_path, std::ios::app);
    if (!manifest_)
      throw std::runtime_error("cannot open resume manifest for append: " +
                               config_.manifest_path);
  }
  postmortem_prefix_ = config_.postmortem_prefix;
  if (postmortem_prefix_.empty() && !config_.manifest_path.empty())
    postmortem_prefix_ = config_.manifest_path + ".postmortem-";
}

void Committer::commit(TrialOutcome outcome, const std::string* wire_line) {
  if (outcome.from_manifest) {
    ++result_.resumed;
  } else {
    if (manifest_.is_open()) {
      // One line per finished trial, flushed as soon as every *earlier*
      // trial's line is down: a campaign killed mid-run resumes from the
      // first trial with no line, and lines never appear out of order.
      manifest_ << (wire_line != nullptr ? *wire_line : manifest_line(outcome, config_hex_))
                << '\n'
                << std::flush;
    }
    busy_ns_ += outcome.wall_ns;
    ++fresh_done_;
  }
  if (outcome.status == TrialStatus::kCompleted) {
    ++result_.completed;
    result_.aggregate.fold(outcome);
    result_.telemetry.add_counter("trials.completed");
    // Distributions fold only completed trials — quarantined metrics are
    // evidence (flight recorder), not population data.
    if (outcome.telemetry) result_.telemetry.fold(*outcome.telemetry);
  } else {
    ++result_.quarantined;
    result_.telemetry.add_counter("trials.quarantined");
    if (!outcome.postmortem.empty() && !postmortem_prefix_.empty()) {
      const std::string path =
          postmortem_prefix_ + std::to_string(outcome.seed) + ".ndjson";
      if (std::ofstream out(path); out) {
        out << outcome.postmortem;
        if (out) result_.postmortem_paths.push_back(path);
      }
    }
  }
  result_.trials.push_back(std::move(outcome));
  ++committed_;

  const std::size_t done = committed_;
  if (config_.progress_hook && config_.progress_every > 0 &&
      (done % config_.progress_every == 0 || done == config_.trials)) {
    CampaignProgress p;
    p.trials_total = config_.trials;
    p.trials_done = done;
    p.completed = result_.completed;
    p.quarantined = result_.quarantined;
    p.resumed = result_.resumed;
    p.workers = workers_;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    p.wall_seconds = elapsed_ns / 1e9;
    if (fresh_done_ > 0 && elapsed_ns > 0.0) {
      p.trials_per_sec = static_cast<double>(fresh_done_) / p.wall_seconds;
      p.eta_seconds = static_cast<double>(config_.trials - done) / p.trials_per_sec;
      p.worker_utilization =
          static_cast<double>(busy_ns_) / (elapsed_ns * static_cast<double>(workers_));
      if (p.worker_utilization > 1.0) p.worker_utilization = 1.0;
    }
    p.telemetry = &result_.telemetry;
    config_.progress_hook(p);
  }
}

CampaignResult Committer::finish() { return std::move(result_); }

}  // namespace campaign_detail

const char* to_string(TrialStatus status) {
  return status == TrialStatus::kCompleted ? "completed" : "quarantined";
}

void CampaignAggregate::fold(const TrialOutcome& trial) {
  ++trials;
  sessions += trial.sessions;
  sessions_completed += trial.sessions_completed;
  sessions_failed += trial.sessions_failed;
  frames_rendered += trial.frames_rendered;
  frames_dropped += trial.frames_dropped;
  packets_received += trial.packets_received;
  packets_lost += trial.packets_lost;
  rebuffer_events += trial.rebuffer_events;
  stall_time = stall_time + trial.stall_time;
  reroutes += trial.reroutes;
  route_restores += trial.route_restores;
  failovers += trial.failovers;
  router_down_stall = router_down_stall + trial.router_down_stall;
  packets_recovered += trial.packets_recovered;
  nacks_sent += trial.nacks_sent;
  retransmissions_sent += trial.retransmissions_sent;
  parity_packets += trial.parity_packets;
  path_switches += trial.path_switches;
  nack_suppressed += trial.nack_suppressed;
}

std::vector<std::uint64_t> CampaignResult::quarantined_seeds() const {
  std::vector<std::uint64_t> seeds;
  for (const TrialOutcome& t : trials)
    if (t.status == TrialStatus::kQuarantined) seeds.push_back(t.seed);
  return seeds;
}

std::uint64_t campaign_config_digest(const CampaignConfig& config) {
  Digester d;
  const ClipInfo& clip = config.clip;
  d.i64(clip.data_set);
  d.u64(static_cast<std::uint64_t>(clip.content));
  d.u64(static_cast<std::uint64_t>(clip.player));
  d.u64(static_cast<std::uint64_t>(clip.tier));
  d.i64(clip.encoded_rate.bits_per_second());
  d.i64(clip.advertised_rate.bits_per_second());
  d.i64(clip.length.ns());

  const TurbulenceScenarioConfig& s = config.scenario;
  d.i64(s.path.hop_count);
  d.i64(s.path.access_bandwidth.bits_per_second());
  d.i64(s.path.backbone_bandwidth.bits_per_second());
  d.i64(s.path.bottleneck_bandwidth.bits_per_second());
  d.i64(s.path.one_way_propagation.ns());
  d.i64(s.path.jitter_stddev.ns());
  d.f64(s.path.loss_probability);
  d.u64(s.path.queue_limit_bytes);
  // Self-healing topology/control-plane knobs: trials run with a different
  // detour, repair policy or mirror setup are not comparable.
  d.u64(s.path.detour ? 1 : 0);
  if (s.path.detour) {
    d.i64(s.path.detour->span_first);
    d.i64(s.path.detour->span_last);
    d.i64(s.path.detour->hops);
    d.i64(s.path.detour->metric);
  }
  d.u64(s.repair ? 1 : 0);
  if (s.repair) {
    d.i64(s.repair->detection_delay.ns());
    d.i64(s.repair->hold_down.ns());
  }
  d.i64(s.repair_span_first);
  d.i64(s.repair_span_last);
  d.u64(s.mirror_server ? 1 : 0);
  d.i64(s.icmp_unreachable_threshold);
  // Loss-repair policy: trials with different FEC/NACK/pacer parameters
  // produce different wire traffic and are not comparable.
  d.i64(s.repair_layer.fec_k);
  d.i64(s.repair_layer.fec_stride);
  d.u64(s.repair_layer.nack ? 1 : 0);
  d.f64(s.repair_layer.nack_rtt_multiplier);
  d.i64(s.repair_layer.nack_min_delay.ns());
  d.i64(s.repair_layer.nack_max_delay.ns());
  d.i64(s.repair_layer.nack_max_retries);
  d.u64(s.repair_layer.retx_buffer_packets);
  d.f64(s.repair_layer.pacer_rate_fraction);
  d.u64(s.repair_layer.pacer_burst_bytes);
  d.i64(s.repair_layer.nack_reorder_tolerance);
  // Multipath striping policy: striped and single-path trials produce
  // different wire traffic, as do different weights or health thresholds.
  d.u64(s.multipath.enabled ? 1 : 0);
  if (s.multipath.enabled) {
    d.i64(s.multipath.primary_weight);
    d.i64(s.multipath.detour_weight);
    d.f64(s.multipath.loss_unhealthy);
    d.f64(s.multipath.loss_healthy);
    d.f64(s.multipath.ewma_alpha);
    d.i64(s.multipath.strike_limit);
    d.i64(s.multipath.report_interval.ns());
    d.i64(s.multipath.hold_down.ns());
    d.u64(s.multipath.join_buffer_packets);
    d.i64(s.multipath.join_hold.ns());
    d.i64(s.multipath.nack_reorder_tolerance);
  }
  d.u64(s.recovery.play_retry ? 1 : 0);
  d.i64(s.recovery.play_timeout.ns());
  d.f64(s.recovery.backoff);
  d.i64(s.recovery.max_play_attempts);
  d.i64(s.recovery.inactivity_timeout.ns());
  d.u64(s.rebuffering ? 1 : 0);
  d.i64(s.max_stall.ns());
  d.u64(s.episodes.size());
  for (const FaultEpisode& e : s.episodes) fold_episode(d, e);
  d.i64(s.extra_sim_time.ns());
  d.u64(s.max_sim_events);
  d.i64(s.max_wall_time.count());

  d.u64(config.trials);
  d.u64(config.base_seed);
  d.u64(config.verify_determinism ? 1 : 0);
  d.u64(config.verify_seed_skew);
  return d.h;
}

std::size_t resolve_workers(const CampaignConfig& config, std::size_t pending) {
  std::size_t n = config.workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // hardware_concurrency may be unknowable
  }
  if (n > pending) n = pending;
  return n == 0 ? 1 : n;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const std::string config_hex = hex64(campaign_config_digest(config));
  // Set when the commit loop throws, so the runners stop claiming and can
  // be joined before the state they share unwinds.
  std::atomic<bool> abandoned{false};
  const auto is_cancelled = [&] {
    return abandoned.load(std::memory_order_relaxed) ||
           (config.cancel != nullptr && config.cancel->load(std::memory_order_relaxed));
  };

  // Restore finished trials from an existing manifest (resume), tolerating
  // — and truncating away — a torn trailing line from a mid-write crash.
  campaign_detail::ManifestRead manifest_read;
  if (!config.manifest_path.empty())
    manifest_read = campaign_detail::read_resume_manifest(config.manifest_path,
                                                          config_hex, config.trials);
  std::map<std::size_t, TrialOutcome>& restored = manifest_read.restored;

  // Trials still to run, in index order (the claim order of the pool).
  std::vector<std::size_t> pending;
  pending.reserve(config.trials);
  for (std::size_t i = 0; i < config.trials; ++i)
    if (!restored.contains(i)) pending.push_back(i);

  const std::size_t workers = resolve_workers(config, pending.size());
  // An Obs context is thread-confined and single-run; two concurrent trials
  // writing one registry/tracer would race. Campaigns were already told to
  // leave `obs` unset (SimTime restarts per trial) — under a parallel pool
  // that advice becomes a hard requirement, rejected up front.
  if (config.scenario.obs != nullptr && workers > 1)
    throw std::runtime_error(
        "campaign: scenario.obs cannot be shared across concurrent trials; "
        "run with workers=1 or leave obs unset");

  campaign_detail::Committer committer(config, config_hex, workers);

  // Worker pool: the calling thread is worker 0 and `workers - 1` threads
  // join it. Each runner claims the next pending index, runs the trial
  // entirely on its own thread (run_trial contains every exception inside
  // the outcome), and parks the result in `finished`. This thread also
  // commits, strictly in index order, so everything order-sensitive —
  // manifest lines, aggregate folds, quarantine counts — is identical at
  // any worker count. At workers == 1 no thread is spawned and each trial
  // commits before the next is claimed.
  std::vector<std::optional<TrialOutcome>> finished(config.trials);
  std::mutex mu;
  std::condition_variable trial_done;
  std::atomic<std::size_t> next_claim{0};
  std::size_t workers_alive = workers - 1;  // spawned threads; guarded by mu
  const bool want_scratch_obs =
      config.collect_telemetry && config.scenario.obs == nullptr;
  // Claims and runs one pending trial; false once none is left to claim.
  // Each runner passes its own reusable scratch Obs, built on its first
  // trial: registry maps and the intern table persist, later trials only
  // reset values.
  const auto run_next = [&](std::optional<obs::Obs>& scratch) {
    const std::size_t k = next_claim.fetch_add(1, std::memory_order_relaxed);
    if (k >= pending.size()) return false;
    const std::size_t index = pending[k];
    if (want_scratch_obs && !scratch)
      scratch.emplace(campaign_detail::trial_obs_config(config));
    TrialOutcome outcome = campaign_detail::run_trial(config, index, config_hex,
                                                      scratch ? &*scratch : nullptr);
    {
      std::lock_guard<std::mutex> lock(mu);
      finished[index] = std::move(outcome);
    }
    trial_done.notify_all();
    return true;
  };

  const auto runner = [&] {
    std::optional<obs::Obs> scratch;
    while (!is_cancelled() && run_next(scratch)) {
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      --workers_alive;
    }
    // The commit loop's cancellation predicate watches workers_alive.
    trial_done.notify_all();
  };

  // Trial i's outcome, once it is in. Until then this thread runs pending
  // trials itself, and once none is left to claim (or the campaign is
  // cancelled) it waits for the other runners. A cancelled pool stops
  // claiming; once every thread has parked, a trial with no outcome will
  // never get one (nullopt) — that is where the interrupted campaign's
  // manifest ends.
  std::optional<obs::Obs> scratch;
  const auto await_trial = [&](std::size_t i) -> std::optional<TrialOutcome> {
    std::unique_lock<std::mutex> lock(mu);
    while (!finished[i].has_value()) {
      lock.unlock();
      const bool ran = !is_cancelled() && run_next(scratch);
      lock.lock();
      if (ran) continue;
      trial_done.wait(lock, [&] {
        return finished[i].has_value() || (is_cancelled() && workers_alive == 0);
      });
      if (!finished[i].has_value()) return std::nullopt;
    }
    return std::exchange(finished[i], std::nullopt);
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  bool interrupted = false;
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(runner);
    for (std::size_t i = 0; i < config.trials; ++i) {
      if (auto it = restored.find(i); it != restored.end()) {
        committer.commit(std::move(it->second));
        continue;
      }
      std::optional<TrialOutcome> outcome = await_trial(i);
      if (!outcome) {
        interrupted = true;
        break;
      }
      committer.commit(std::move(*outcome));
    }
  } catch (...) {
    abandoned.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  CampaignResult result = committer.finish();
  result.interrupted = interrupted;
  result.manifest_torn_lines = manifest_read.torn_lines;
  return result;
}

}  // namespace streamlab
