#include "core/campaign.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/flightrec.hpp"
#include "core/jobs.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/arity.hpp"

namespace streamlab {
namespace {

// --- Config digest (FNV-1a over every knob that shapes trial results) ---
//
// Each config struct has one visit listing its digested fields in fold
// order; the Digester picks each field's fold from its type. Beside every
// visit a static_assert checks that the fields it folds plus the ones it
// excludes by name make up the whole struct, so a new member that is
// neither folded nor deliberately excluded fails the build.

/// True when aggregate T has `folded` members plus the `excluded` ones.
template <class T>
consteval bool covers(std::size_t folded, std::initializer_list<const char*> excluded = {}) {
  return aggregate_arity<T> == folded + excluded.size();
}

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

  template <class... T>
  void operator()(const T&... fields) {
    (fold(fields), ...);
  }
  void fold(Duration d) { i64(d.ns()); }
  void fold(SimTime t) { i64(t.ns()); }
  void fold(BitRate r) { i64(r.bits_per_second()); }
  void fold(std::chrono::milliseconds d) { i64(d.count()); }
  void fold(std::string_view tag) {
    u64(tag.size());
    bytes(tag.data(), tag.size());
  }
  template <class T>
  void fold(const std::optional<T>& field) {
    u64(field ? 1 : 0);
    if (field) fold(*field);
  }
  template <class T>
  void fold(const std::vector<T>& items) {
    u64(items.size());
    for (const T& item : items) fold(item);
  }
  /// Scalars by type; config structs through their visit below.
  template <class T>
  void fold(const T& field);
};

void visit(Digester& v, const ClipInfo& c) {
  v(c.data_set, c.content, c.player, c.tier, c.encoded_rate, c.advertised_rate, c.length);
}
static_assert(covers<ClipInfo>(7));

void visit(Digester& v, const DetourConfig& d) { v(d.span_first, d.span_last, d.hops, d.metric); }
static_assert(covers<DetourConfig>(4));

// path.seed is overwritten with each trial's seed.
void visit(Digester& v, const PathConfig& p) {
  v(p.hop_count, p.access_bandwidth, p.backbone_bandwidth, p.bottleneck_bandwidth,
    p.one_way_propagation, p.jitter_stddev, p.loss_probability, p.queue_limit_bytes, p.detour);
}
static_assert(covers<PathConfig>(9, {"seed"}));

void visit(Digester& v, const RouteRepairConfig& r) { v(r.detection_delay, r.hold_down); }
static_assert(covers<RouteRepairConfig>(2));

void visit(Digester& v, const RepairLayerConfig& r) {
  v(r.fec_k, r.fec_stride, r.nack, r.nack_rtt_multiplier, r.nack_min_delay, r.nack_max_delay,
    r.nack_max_retries, r.retx_buffer_packets, r.pacer_rate_fraction, r.pacer_burst_bytes,
    r.nack_reorder_tolerance);
}
static_assert(covers<RepairLayerConfig>(11));

// The policy folds only when striping is on. The aliases are session wiring
// the harness fills in.
void visit(Digester& v, const MultipathConfig& m) {
  v(m.enabled);
  if (m.enabled)
    v(m.primary_weight, m.detour_weight, m.loss_unhealthy, m.loss_healthy, m.ewma_alpha,
      m.strike_limit, m.report_interval, m.hold_down, m.join_buffer_packets, m.join_hold,
      m.nack_reorder_tolerance);
}
static_assert(covers<MultipathConfig>(12, {"client_alias", "server_alias"}));

void visit(Digester& v, const SessionRecoveryConfig& r) {
  v(r.play_retry, r.play_timeout, r.backoff, r.max_play_attempts, r.inactivity_timeout);
}
static_assert(covers<SessionRecoveryConfig>(5));

void visit(Digester& v, const GilbertElliottConfig& g) {
  v(g.p_good_to_bad, g.p_bad_to_good, g.loss_good, g.loss_bad);
}
static_assert(covers<GilbertElliottConfig>(4));

void visit(Digester& v, const FaultEpisode& e) {
  v(e.kind, e.router_index, e.detour, e.start, e.duration, e.bandwidth, e.extra_delay,
    e.loss_probability, e.gilbert);
}
static_assert(covers<FaultEpisode>(9, {"label"}));

void visit(Digester& v, const WmBehavior& b) {
  v(b.frame_interval, b.min_media_per_datagram, b.preroll, b.app_batch_interval);
}
static_assert(covers<WmBehavior>(4));

void visit(Digester& v, const RmBehavior& b) {
  v(b.ratio_at_low, b.ratio_exponent, b.ratio_floor, b.burst_at_low, b.burst_at_high,
    b.burst_max_fraction_of_clip, b.preroll, b.size_cv, b.size_spread_min, b.size_spread_max,
    b.max_media_per_datagram, b.min_media_per_datagram, b.interarrival_cv);
}
static_assert(covers<RmBehavior>(13));

// The seed and the obs/auditor/probe hooks are set per trial. The player
// behaviours fold, tagged, only when they differ from the defaults, which
// keeps every digest taken under the default players unchanged.
void visit(Digester& v, const TurbulenceScenarioConfig& s) {
  v(s.path, s.repair, s.repair_span_first, s.repair_span_last, s.mirror_server,
    s.icmp_unreachable_threshold, s.repair_layer, s.multipath, s.recovery, s.rebuffering,
    s.max_stall, s.episodes, s.extra_sim_time, s.max_sim_events, s.max_wall_time);
  if (s.wm != WmBehavior{}) v(std::string_view("wm"), s.wm);
  if (s.rm != RmBehavior{}) v(std::string_view("rm"), s.rm);
}
static_assert(covers<TurbulenceScenarioConfig>(17, {"seed", "obs", "auditor", "probe"}));

// Execution and telemetry knobs change how a campaign runs, never what a
// trial computes: a manifest resumes across them.
void visit(Digester& v, const CampaignConfig& c) {
  v(c.clip, c.scenario, c.trials, c.base_seed, c.verify_determinism, c.verify_seed_skew);
}
static_assert(covers<CampaignConfig>(
    6, {"manifest_path", "workers", "fault_hook", "collect_telemetry", "flight_recorder_records",
        "postmortem_prefix", "progress_every", "progress_hook", "cancel"}));

template <class T>
void Digester::fold(const T& field) {
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>)
    u64(static_cast<std::uint64_t>(field));
  else if constexpr (std::is_floating_point_v<T>)
    u64(std::bit_cast<std::uint64_t>(field));
  else if constexpr (std::is_signed_v<T>)
    i64(field);
  else if constexpr (std::is_unsigned_v<T>)
    u64(field);
  else
    visit(*this, field);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Manifest line reader (the repo carries no JSON dependency) ---

[[noreturn]] void bad_line(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("resume manifest line " + std::to_string(line_no) + ": " + why);
}

/// Reads one manifest line strictly, as manifest_line writes it: a single
/// flat JSON object whose values are strings (returned unescaped) or bare
/// number tokens. A syntax error or a duplicate key throws.
std::map<std::string, std::string> read_members(const std::string& line, std::size_t line_no) {
  std::size_t pos = 0;
  const auto expect = [&](char c) {
    if (pos >= line.size() || line[pos] != c)
      bad_line(line_no, std::string("expected '") + c + "' at byte " + std::to_string(pos));
    ++pos;
  };
  // The rest of a string up to its closing quote, decoding what
  // obs::json_escape writes.
  const auto read_string = [&] {
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos++];
      if (c == '\\' && pos < line.size()) {
        c = line[pos++];
        if (c == 'n') {
          c = '\n';
        } else if (c == 'r') {
          c = '\r';
        } else if (c == 't') {
          c = '\t';
        } else if (c == 'u') {
          unsigned code = 0;
          const char* hex = line.data() + pos;
          const auto [ptr, ec] =
              std::from_chars(hex, hex + std::min<std::size_t>(4, line.size() - pos), code, 16);
          if (ec != std::errc() || ptr != hex + 4 || code >= 0x80)
            bad_line(line_no, "unsupported \\u escape at byte " + std::to_string(pos));
          pos += 4;
          c = static_cast<char>(code);
        }
      }
      out += c;
    }
    expect('"');
    return out;
  };

  std::map<std::string, std::string> members;
  expect('{');
  for (bool more = true; more;) {
    expect('"');
    std::string key = read_string();
    expect(':');
    std::string value;
    if (pos < line.size() && line[pos] == '"') {
      ++pos;
      value = read_string();
    } else {
      const std::size_t end = std::min(line.find_first_of(",}", pos), line.size());
      value = line.substr(pos, end - pos);
      pos = end;
    }
    if (!members.emplace(key, std::move(value)).second)
      bad_line(line_no, "duplicate key \"" + key + "\"");
    more = pos < line.size() && line[pos] == ',';
    pos += more ? 1 : 0;
  }
  expect('}');
  if (pos != line.size()) bad_line(line_no, "trailing bytes after the closing brace");
  return members;
}

}  // namespace

namespace campaign_detail {

std::string config_hex(const CampaignConfig& config) {
  return hex64(campaign_config_digest(config));
}

std::string manifest_line(const TrialOutcome& t, const std::string& config_hex) {
  std::string line;
  const auto field = [&line](const char* key, const std::string& value) {
    line += line.empty() ? "{\"" : ",\"";
    line += key;
    line += "\":";
    line += value;
  };
  const auto quoted = [](std::string_view s) { return "\"" + obs::json_escape(s) + "\""; };
  field("trial", std::to_string(t.index));
  field("seed", std::to_string(t.seed));
  field("config", quoted(config_hex));
  field("status", quoted(to_string(t.status)));
  field("reason", quoted(t.reason));
  field("checks", std::to_string(t.checks));
  field("violations", std::to_string(t.violations));
  field("sim_events", std::to_string(t.sim_events));
  field("budget_exhausted", t.budget_exhausted ? "1" : "0");
  field("digest", quoted(hex64(t.digest)));
  field("divergence",
        std::to_string(t.divergence ? static_cast<std::int64_t>(*t.divergence) : -1));
  TrialMetrics::for_each_metric([&](const char* key, auto member) {
    if constexpr (std::is_same_v<decltype(t.*member), const Duration&>)
      field(key, std::to_string((t.*member).ns()));
    else
      field(key, std::to_string(t.*member));
  });
  if (t.status == TrialStatus::kQuarantined) {
    // Worker post-mortem evidence rides quarantined records only: completed
    // lines must stay byte-identical with the serial path no matter how
    // many process-worker reassignments the trial survived.
    field("attempts", std::to_string(t.attempts));
    field("worker_exit_status", std::to_string(t.worker_exit_status));
    field("stderr_tail", quoted(t.stderr_tail));
  }
  // Optional trailing field so manifests from pre-telemetry builds (and
  // collect_telemetry=false runs) parse identically.
  if (t.telemetry && !t.telemetry->empty()) field("telemetry", quoted(t.telemetry->serialize()));
  line += "}";
  return line;
}

TrialOutcome parse_manifest_line(const std::string& line, const std::string& config_hex,
                                 std::size_t line_no) {
  std::map<std::string, std::string> members = read_members(line, line_no);
  // Takes a member out by key: a missing one rejects the line, and so does
  // any member left over once every known key is taken.
  const auto text = [&](const std::string& key) {
    const auto it = members.find(key);
    if (it == members.end()) bad_line(line_no, "missing key \"" + key + "\"");
    std::string value = std::move(it->second);
    members.erase(it);
    return value;
  };
  // A whole number that fits `out`, or the line is rejected.
  const auto number = [&]<class T>(const std::string& key, T& out, int base = 10) {
    const std::string v = text(key);
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out, base);
    if (ec != std::errc() || ptr != v.data() + v.size())
      bad_line(line_no, "bad number for \"" + key + "\": '" + v + "'");
  };

  const std::string config = text("config");
  if (config != config_hex)
    bad_line(line_no, "config digest mismatch (manifest " + config + ", campaign " +
                          config_hex + "): refusing to mix trials from different configurations");
  TrialOutcome t;
  t.from_manifest = true;
  number("trial", t.index);
  number("seed", t.seed);
  const std::string status = text("status");
  if (status == to_string(TrialStatus::kQuarantined))
    t.status = TrialStatus::kQuarantined;
  else if (status != to_string(TrialStatus::kCompleted))
    bad_line(line_no, "unknown status '" + status + "'");
  t.reason = text("reason");
  number("checks", t.checks);
  number("violations", t.violations);
  number("sim_events", t.sim_events);
  std::uint64_t budget_exhausted = 0;
  number("budget_exhausted", budget_exhausted);
  t.budget_exhausted = budget_exhausted != 0;
  number("digest", t.digest, 16);
  std::int64_t divergence = -1;
  number("divergence", divergence);
  if (divergence >= 0) t.divergence = static_cast<std::uint64_t>(divergence);
  TrialMetrics::for_each_metric([&](const char* key, auto member) {
    if constexpr (std::is_same_v<decltype(t.*member), Duration&>) {
      std::int64_t ns = 0;
      number(key, ns);
      t.*member = Duration::nanos(ns);
    } else {
      number(key, t.*member);
    }
  });
  // Optional: worker evidence (quarantined lines only) and telemetry.
  if (members.contains("attempts")) number("attempts", t.attempts);
  if (members.contains("worker_exit_status")) number("worker_exit_status", t.worker_exit_status);
  if (members.contains("stderr_tail")) t.stderr_tail = text("stderr_tail");
  if (members.contains("telemetry")) {
    auto telemetry = obs::TrialTelemetry::parse(text("telemetry"));
    if (!telemetry) bad_line(line_no, "unparseable telemetry snapshot");
    t.telemetry = std::move(*telemetry);
  }
  if (!members.empty()) bad_line(line_no, "unknown key \"" + members.begin()->first + "\"");
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
    t.packets_recovered += m->packets_recovered();
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
      wire_bytes += m->total_wire_bytes();
      if (m->packets_recovered() > 0) {
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
    // Three salvage metrics are tallied too, as "trial.<manifest key>".
    TrialMetrics::for_each_metric([&](std::string_view key, auto member) {
      if constexpr (std::is_same_v<decltype(t.*member), const std::uint64_t&>)
        if (key == "packets_lost" || key == "rebuffers" || key == "reroutes")
          out.set_tally("trial." + std::string(key), t.*member);
    });
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
  if (scenario.obs != nullptr) {
    scenario.obs->registry().counter("audit.checks").add(t.checks);
    scenario.obs->registry().counter("audit.violations").add(t.violations);
  }
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
  for_each_metric([&](const char*, auto member) { this->*member = this->*member + trial.*member; });
}

std::vector<std::uint64_t> CampaignResult::quarantined_seeds() const {
  std::vector<std::uint64_t> seeds;
  for (const TrialOutcome& t : trials)
    if (t.status == TrialStatus::kQuarantined) seeds.push_back(t.seed);
  return seeds;
}

std::uint64_t campaign_config_digest(const CampaignConfig& config) {
  Digester d;
  d(config);
  return d.h;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const std::string config_hex = hex64(campaign_config_digest(config));

  // Restore finished trials from an existing manifest (resume), tolerating
  // — and truncating away — a torn trailing line from a mid-write crash.
  campaign_detail::ManifestRead manifest_read;
  if (!config.manifest_path.empty())
    manifest_read = campaign_detail::read_resume_manifest(config.manifest_path,
                                                          config_hex, config.trials);
  std::map<std::size_t, TrialOutcome>& restored = manifest_read.restored;

  // Trials still to run, in index order: job k of the pool is trial pending[k].
  std::vector<std::size_t> pending;
  pending.reserve(config.trials);
  for (std::size_t i = 0; i < config.trials; ++i)
    if (!restored.contains(i)) pending.push_back(i);

  const std::size_t workers = job_workers(config.workers, pending.size());
  // An Obs context is thread-confined and single-run; two concurrent trials
  // writing one registry/tracer would race. Campaigns were already told to
  // leave `obs` unset (SimTime restarts per trial) — under a parallel pool
  // that advice becomes a hard requirement, rejected up front.
  if (config.scenario.obs != nullptr && workers > 1)
    throw std::runtime_error(
        "campaign: scenario.obs cannot be shared across concurrent trials; "
        "run with workers=1 or leave obs unset");

  campaign_detail::Committer committer(config, config_hex, workers);

  // Each trial runs entirely on its runner (run_trial contains every
  // exception inside the outcome) and is committed here in trial-index
  // order, restored trials in between, so everything order-sensitive —
  // manifest lines, aggregate folds, quarantine counts — is identical at any
  // worker count. Each runner passes its own reusable scratch Obs, built on
  // its first trial: registry maps and the intern table persist, later
  // trials only reset values.
  const bool want_scratch_obs =
      config.collect_telemetry && config.scenario.obs == nullptr;
  std::vector<std::optional<obs::Obs>> scratch(workers);
  std::vector<std::optional<TrialOutcome>> finished(pending.size());
  std::size_t next_index = 0;  // the next trial to commit
  const auto commit_restored_below = [&](std::size_t end) {
    for (; next_index < end; ++next_index) committer.commit(std::move(restored.at(next_index)));
  };
  const std::size_t ran = run_jobs(
      pending.size(), workers,
      [&](std::size_t k, std::size_t runner) {
        std::optional<obs::Obs>& obs = scratch[runner];
        if (want_scratch_obs && !obs) obs.emplace(campaign_detail::trial_obs_config(config));
        finished[k] = campaign_detail::run_trial(config, pending[k], config_hex,
                                                 obs ? &*obs : nullptr);
      },
      [&](std::size_t k) {
        commit_restored_below(pending[k]);
        committer.commit(std::move(*finished[k]));
        finished[k].reset();
        ++next_index;
      },
      config.cancel);
  // A cancelled pool stops claiming; the first trial that never ran is where
  // the interrupted campaign's manifest ends.
  const bool interrupted = ran < pending.size();
  commit_restored_below(interrupted ? pending[ran] : config.trials);

  CampaignResult result = committer.finish();
  result.interrupted = interrupted;
  result.manifest_torn_lines = manifest_read.torn_lines;
  return result;
}

}  // namespace streamlab
