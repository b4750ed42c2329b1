// turbulence_lab: the paper's comparison run through *scripted* network
// turbulence. Streams the WM/RM pair of one clip set while the fault layer
// plays impairment episodes onto the bottleneck link — a short link flap
// the delay buffers should absorb, a long outage the inactivity watchdog
// must detect, a Gilbert–Elliott burst-loss epoch, and a congestion
// (bandwidth) dip — then prints each session's recovery metrics and writes
// the CSV exports. The scenarios come by name from the catalog beside
// run_turbulence_pair (src/core/turbulence.hpp). The flags are one table
// (kFlags below); an unknown flag, a bad value or a fourth positional
// argument prints the usage, generated from it, to stderr and exits 1.
//
// With --fleet N the lab switches to the city-scale trial: N flyweight
// sessions (a struct-of-arrays table, ~26 bytes/session, zero allocations
// per event in steady state) stream a WM-profile CBR clip through a shared
// Gilbert–Elliott turbulence window on one deterministic event loop. The
// run prints sessions/sec and events/sec wall-clock throughput, delivery /
// loss / rebuffer statistics and the order-sensitive delivery digest. An
// audit::Auditor rides along (monotone event dispatch + fleet-wide packet
// conservation); any violation fails the run. --verify-determinism runs
// the fleet twice and exits nonzero when the digests differ.
//
// With --distributed the campaign trials run on separate worker *processes*
// (this binary re-exec'd with --worker media|real) under the
// crash-tolerant coordinator: heartbeats and per-trial deadlines detect
// dead/hung workers, their in-flight trials are reassigned (capped retries,
// exponential backoff, poison quarantine), dead slots respawn up to
// --max-worker-restarts times, and a fully-dead fleet degrades to the
// in-process pool. Results stay byte-identical with a serial run.
// --kill-worker-after <n> SIGKILLs worker 0 after n results as a
// deterministic fault-injection demo. SIGINT/SIGTERM during any campaign
// mode flushes the partial manifest + aggregate before exiting nonzero, so
// an interrupted study resumes cleanly.
//
// With --chaos the lab runs the self-healing pair instead of the link
// impairment set: router-down-reroute (the route-repair control plane moves
// the stream onto a detour) and router-down-failover (no detour; the client
// fails over to a mirror server and resumes mid-clip). With --multipath it
// runs multipath-flap: the stream striped 2:1 across the chain and a detour
// whose first router flaps three times, and the summary adds per-path
// loss/goodput, path switches, join-buffer reorder depth and suppressed
// NACKs. Campaign trials run burst-loss, or router-down-reroute with
// --chaos, or multipath-flap with --multipath (which takes precedence).
//
// With --fec <k> the servers send one interleaved XOR parity packet per k
// data packets (stride 4, tuned for the burst-loss regime's mean burst
// length) and the clients reconstruct single erasures per parity row. With
// --nack the clients detect sequence gaps and request retransmission
// (RTT-scaled timeout, bounded retries; the server answers from a bounded
// buffer through a token-bucket pacer). Both flags apply to every scenario
// and campaign trial; each session's summary line then reports recovered
// packet counts, recovery ratio, repair latency and bandwidth overhead.
//
// With --trace, every scenario also dumps its observability data under
// <dir>/<scenario>/: trace.json (Chrome trace-event format — open it at
// ui.perfetto.dev), trace.ndjson, timeseries.csv and metrics.csv.
//
// With --campaign N the lab switches to campaign mode: N audited trials per
// player (seeds base..base+N-1) with per-trial budgets, quarantine
// of throwing/violating trials, and an NDJSON resume manifest (--manifest;
// re-running with the same manifest skips finished trials). Trials run on a
// worker pool (--workers N; 0 = one per hardware thread, 1 = serial on the
// calling thread; N runs the calling thread plus N-1 more) with
// results committed in trial order, so the output is identical at any worker
// count; each campaign prints its trials/sec wall-clock throughput. Add
// --verify-determinism to run every trial twice and compare replay digests.
// Exits nonzero when any trial was quarantined.
//
// With --progress-every n the campaign prints a progress/health line every n
// committed trials (trials/sec, ETA, quarantine rate, worker utilization)
// plus a final cross-trial distribution digest; without the flag the output
// is byte-identical to earlier releases, so smoke-test diffs stay valid.
// Quarantined trials leave a flight-recorder post-mortem
// (<manifest>.postmortem-<seed>.ndjson) whose path is printed;
// --plant-quarantine <index> forces an audit violation in that trial to
// exercise the path deliberately.
//
// A scenario run that dies mid-flight still flushes the CSV rows of every
// scenario finished so far before exiting nonzero, so a crashed lab leaves
// salvageable partial exports rather than nothing.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "campaign/distributed.hpp"
#include "campaign/worker.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/fleet.hpp"
#include "core/turbulence.hpp"
#include "obs/export.hpp"

using namespace streamlab;

namespace {

/// Every setting of one lab run. The flags set these fields through kFlags;
/// the positional arguments are the clip set, the rate tier and the export
/// directory.
struct Options {
  std::string trace_dir;
  bool chaos = false;
  bool multipath = false;
  std::uint64_t fec_k = 0;
  bool nack = false;
  std::uint64_t campaign_trials = 0;
  std::uint64_t workers = 0;  ///< 0 = one per hardware thread
  bool verify_determinism = false;
  std::string manifest_path;
  std::uint64_t base_seed = 1;
  std::uint64_t progress_every = 0;
  long long plant_quarantine = -1;
  bool distributed = false;
  std::uint64_t max_worker_restarts = 2;
  std::uint64_t kill_worker_after = 0;
  std::uint64_t fleet_sessions = 0;
  std::string worker;  ///< media|real: run as a child of a --distributed coordinator
  std::vector<std::string> positional;

  /// The loss repair layer --fec/--nack select, folded into every scenario
  /// and campaign trial.
  RepairLayerConfig repair() const {
    RepairLayerConfig r;
    if (fec_k > 0) {
      r.fec_k = static_cast<int>(fec_k);
      // Interleave depth 4: the burst-loss regime's mean burst length, so a
      // whole burst lands in distinct parity rows and stays recoverable.
      r.fec_stride = 4;
    }
    r.nack = nack;
    return r;
  }
};

/// One flag: its name, the name of its value in the usage (empty for a
/// switch) and the Options field it sets. The field's type is the value
/// kind: a bool is a switch, a string takes the next argument as is, and an
/// integer takes a whole number that must parse and fit (an unsigned one
/// also within [min, max], so no sign).
struct Flag {
  std::string_view name;
  std::string_view value;
  std::variant<bool Options::*, std::string Options::*, std::uint64_t Options::*,
               long long Options::*>
      field;
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

const Flag kFlags[] = {
    {"--trace", "dir", &Options::trace_dir},
    {"--chaos", "", &Options::chaos},
    {"--multipath", "", &Options::multipath},
    {"--fec", "k", &Options::fec_k, 1, 64},
    {"--nack", "", &Options::nack},
    {"--campaign", "N", &Options::campaign_trials},
    {"--workers", "N", &Options::workers},
    {"--verify-determinism", "", &Options::verify_determinism},
    {"--manifest", "path", &Options::manifest_path},
    {"--seed", "base", &Options::base_seed},
    {"--progress-every", "n", &Options::progress_every},
    {"--plant-quarantine", "index", &Options::plant_quarantine},
    {"--distributed", "", &Options::distributed},
    {"--max-worker-restarts", "n", &Options::max_worker_restarts},
    {"--kill-worker-after", "n", &Options::kill_worker_after},
    {"--fleet", "N", &Options::fleet_sessions, 1},
    {"--worker", "media|real", &Options::worker},
};

/// Reports a bad command line: `message`, then the usage. Returns the
/// exit code.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "turbulence_lab: %s\n", message.c_str());
  constexpr std::size_t kWidth = 79;
  const std::string indent(22, ' ');
  std::string line = "usage: turbulence_lab [set 1-6] [low|high|very-high] [export-dir]";
  for (const Flag& f : kFlags) {
    std::string item = "[" + std::string(f.name);
    if (!f.value.empty()) item += " <" + std::string(f.value) + ">";
    item += "]";
    if (line.size() + 1 + item.size() > kWidth) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line = indent + item;
    } else {
      line += " " + item;
    }
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  return 1;
}

template <class T>
bool parse_whole(std::string_view text, T& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Fills `o` from the command line; returns what is wrong with it, or an
/// empty string.
std::string parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (o.positional.size() == 3) return "unexpected argument '" + std::string(arg) + "'";
      o.positional.emplace_back(arg);
      continue;
    }
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                    [&](const Flag& f) { return f.name == arg; });
    if (flag == std::end(kFlags)) return "unknown flag '" + std::string(arg) + "'";
    if (flag->value.empty()) {
      o.*std::get<bool Options::*>(flag->field) = true;
      continue;
    }
    if (i + 1 >= argc) return std::string(arg) + " needs a value";
    const std::string_view text = argv[++i];
    std::string error;
    std::visit(
        [&]<class T>(T Options::*field) {
          if constexpr (std::is_same_v<T, std::string>) {
            o.*field = text;
          } else if constexpr (!std::is_same_v<T, bool>) {
            T value{};
            bool ok = parse_whole(text, value);
            std::string accepted;  // for the error message
            if constexpr (std::is_unsigned_v<T>) {
              ok = ok && value >= flag->min && value <= flag->max;
              accepted = flag->max < std::numeric_limits<T>::max()
                             ? " in " + std::to_string(flag->min) + ".." + std::to_string(flag->max)
                             : " >= " + std::to_string(flag->min);
            }
            if (ok)
              o.*field = value;
            else
              error = std::string(arg) + " needs a whole number" + accepted + ", got '" +
                      std::string(text) + "'";
          }
        },
        flag->field);
    if (!error.empty()) return error;
  }
  if (!o.worker.empty() && o.worker != "media" && o.worker != "real")
    return "--worker must be media or real, got '" + o.worker + "'";
  return {};
}

const char* player_name(const ClipInfo& clip) {
  return clip.player == PlayerKind::kMediaPlayer ? "media" : "real";
}

/// The scenarios scenario mode runs: the link impairment set, or the
/// self-healing pair (--chaos) and the flap-survival scenario (--multipath).
std::vector<std::string_view> scenario_names(const Options& o) {
  if (!o.chaos && !o.multipath)
    return {"short-outage", "long-outage", "burst-loss", "congestion-dip"};
  std::vector<std::string_view> names;
  if (o.chaos) names = {"router-down-reroute", "router-down-failover"};
  if (o.multipath) names.push_back("multipath-flap");
  return names;
}

/// The scenario every campaign trial runs; --multipath takes precedence
/// over --chaos.
std::string_view campaign_scenario(const Options& o) {
  return o.multipath ? "multipath-flap" : o.chaos ? "router-down-reroute" : "burst-loss";
}

void describe(const char* name, const TurbulenceRunResult& run) {
  std::printf("scenario: %s\n", name);
  for (const auto& rec : run.episodes) {
    std::printf("  episode %-12s %-14s t=%5.1fs +%5.1fs  dropped %llu packets\n",
                to_string(rec.episode.kind), rec.episode.label.c_str(),
                rec.episode.start.to_seconds(), rec.episode.duration.to_seconds(),
                static_cast<unsigned long long>(rec.packets_dropped));
  }
  const auto session = [](const SessionRecoveryMetrics& m) {
    std::printf("  %-5s %-10s attempts=%u%s%s%s", m.clip.id().c_str(),
                m.completed      ? "completed"
                : m.stream_dead  ? "DEAD"
                : m.abandoned    ? "ABANDONED"
                                 : "incomplete",
                m.play_attempts, m.stream_dead ? " (watchdog)" : "",
                m.abandoned ? " (retries exhausted)" : "",
                m.established ? "" : " never-established");
    if (m.time_to_recover)
      std::printf("  recover=%.2fs", m.time_to_recover->to_seconds());
    std::printf("  rebuffers=%u stall=%.1fs frames=%u/%u (during=%u after=%u) lost=%llu dup=%llu",
                m.rebuffer_events, m.stall_time.to_seconds(), m.frames_rendered,
                m.frames_rendered + m.frames_dropped, m.frames_dropped_during_episodes,
                m.frames_dropped_after_episodes,
                static_cast<unsigned long long>(m.packets_lost),
                static_cast<unsigned long long>(m.duplicate_packets));
    if (m.failovers > 0)
      std::printf("  failovers=%u (resume@%llu, %llu unreachables)", m.failovers,
                  static_cast<unsigned long long>(m.resume_offset),
                  static_cast<unsigned long long>(m.icmp_unreachables));
    if (m.stall_during_router_down > Duration::zero())
      std::printf("  router-down-stall=%.1fs",
                  m.stall_during_router_down.to_seconds());
    std::printf("\n");
    const auto& [primary, detour] = m.subflow;
    if (primary.packets + detour.packets > 0)
      std::printf(
          "        multipath: primary %llu pkts (loss %.1f%%, %.0f kbps) | "
          "detour %llu pkts (loss %.1f%%, %.0f kbps) | switches %llu | "
          "reorder-p95 %u | nack-suppressed %llu | stalls %u/%u%s\n",
          static_cast<unsigned long long>(primary.packets),
          100.0 * primary.loss_ratio(), m.goodput_kbps(0),
          static_cast<unsigned long long>(detour.packets),
          100.0 * detour.loss_ratio(), m.goodput_kbps(1),
          static_cast<unsigned long long>(m.path_switches), m.reorder_depth_p95,
          static_cast<unsigned long long>(m.nack_suppressed), primary.stalls,
          detour.stalls, m.multipath_degraded ? " DEGRADED" : "");
    if (m.packets_recovered() > 0 || m.parity_packets > 0 || m.nacks_sent > 0)
      std::printf(
          "        repair: recovered=%llu (fec=%llu retx=%llu) ratio=%.1f%% "
          "latency=%.1f/%.1fms nacks=%llu overhead=%.2f%%\n",
          static_cast<unsigned long long>(m.packets_recovered()),
          static_cast<unsigned long long>(m.recovered_by_fec),
          static_cast<unsigned long long>(m.recovered_by_retx),
          100.0 * m.recovery_ratio(), m.repair_latency_mean_ms,
          m.repair_latency_p95_ms, static_cast<unsigned long long>(m.nacks_sent),
          100.0 * m.repair_overhead());
  };
  if (run.real) session(*run.real);
  if (run.media) session(*run.media);
  if (run.reroutes > 0 || run.route_restores > 0)
    std::printf("  route repair: %llu reroutes, %llu restores\n",
                static_cast<unsigned long long>(run.reroutes),
                static_cast<unsigned long long>(run.route_restores));
  std::printf("  sessions failed: %d\n\n", run.sessions_abandoned());
}

/// Cooperative stop flag: SIGINT/SIGTERM set it, the campaign loops check
/// it between trials and flush everything committed so far before the
/// process exits nonzero. std::atomic<bool> is lock-free here, so the
/// handler is async-signal-safe.
std::atomic<bool> g_cancel{false};

extern "C" void handle_stop_signal(int) { g_cancel.store(true); }

/// The trial-shaping half of a campaign config — everything that feeds the
/// config digest. Coordinator and re-exec'd --worker processes must build
/// this identically (the distributed hello handshake verifies it).
CampaignConfig build_campaign_config(const ClipInfo& clip, const Options& o) {
  CampaignConfig cfg;
  cfg.clip = clip;
  cfg.trials = o.campaign_trials;
  cfg.base_seed = o.base_seed;
  cfg.verify_determinism = o.verify_determinism;
  cfg.scenario = turbulence_scenario(campaign_scenario(o)).config(o.repair());
  // Budgets: generous enough that healthy trials never hit them, tight
  // enough that a runaway trial is truncated instead of hanging the lab.
  cfg.scenario.max_sim_events = 50'000'000;
  cfg.scenario.max_wall_time = std::chrono::seconds(120);
  if (const long long plant = o.plant_quarantine; plant >= 0) {
    cfg.fault_hook = [plant](audit::Auditor& auditor, std::size_t index, std::uint64_t) {
      if (index == static_cast<std::size_t>(plant))
        auditor.force_violation("planted by --plant-quarantine");
    };
  }
  return cfg;
}

/// Campaign mode: N audited trials of campaign_scenario() per player.
/// `worker_argv` is the --distributed worker command line, minus the
/// per-player --worker selector. Returns the process exit code (nonzero
/// when any trial was quarantined).
int run_campaign_mode(const ClipSet& set, RateTier tier, const Options& o,
                      const std::vector<std::string>& worker_argv) {
  const std::size_t trials = o.campaign_trials;
  const std::uint64_t base_seed = o.base_seed;
  const auto [real_clip, media_clip] = *set.pair(tier);
  int exit_code = 0;
  for (const ClipInfo* clip : {&real_clip, &media_clip}) {
    CampaignConfig cfg = build_campaign_config(*clip, o);
    cfg.workers = o.workers;
    cfg.cancel = &g_cancel;
    const char* player = player_name(*clip);
    if (!o.manifest_path.empty()) cfg.manifest_path = o.manifest_path + "." + player;
    if (o.progress_every > 0) {
      cfg.progress_every = o.progress_every;
      cfg.progress_hook = [](const CampaignProgress& p) {
        std::printf(
            "  progress: %zu/%zu trials | %.2f trials/sec | eta %.1fs | "
            "quarantine %.1f%% | util %.0f%% | workers %zu\n",
            p.trials_done, p.trials_total, p.trials_per_sec, p.eta_seconds,
            p.trials_done > 0
                ? 100.0 * static_cast<double>(p.quarantined) / static_cast<double>(p.trials_done)
                : 0.0,
            100.0 * p.worker_utilization, p.workers);
      };
    }

    std::printf("campaign: %s  %zu trials  seeds %llu..%llu%s%s\n", clip->id().c_str(),
                trials, static_cast<unsigned long long>(base_seed),
                static_cast<unsigned long long>(base_seed + trials - 1),
                o.verify_determinism ? "  (verifying determinism)" : "",
                o.distributed ? "  (distributed)" : "");
    CampaignResult result;
    const auto wall_start = std::chrono::steady_clock::now();
    try {
      if (o.distributed) {
        campaign::DistributedOptions opts;
        opts.worker_argv = worker_argv;
        opts.worker_argv.push_back("--worker");
        opts.worker_argv.push_back(player);
        // --workers 0 means "one per hardware thread" for the in-process
        // pool; for process workers default to the CI smoke's fleet of 4.
        opts.workers = o.workers > 0 ? o.workers : 4;
        opts.max_worker_restarts = o.max_worker_restarts;
        opts.kill_worker_after = o.kill_worker_after;
        // A healthy trial finishes far inside the 120 s wall budget; a
        // worker that sits on one for longer is hung, not slow.
        opts.trial_deadline = std::chrono::milliseconds(150'000);
        result = campaign::run_distributed_campaign(cfg, opts);
      } else {
        result = run_campaign(cfg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign %s failed: %s\n", player, e.what());
      return 1;
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    for (const TrialOutcome& t : result.trials) {
      if (t.status == TrialStatus::kQuarantined) {
        std::printf("  trial %3zu seed %llu QUARANTINED: %s\n", t.index,
                    static_cast<unsigned long long>(t.seed), t.reason.c_str());
      } else if (!t.from_manifest) {
        std::printf("  trial %3zu seed %llu completed: %llu events, %llu checks%s\n",
                    t.index, static_cast<unsigned long long>(t.seed),
                    static_cast<unsigned long long>(t.sim_events),
                    static_cast<unsigned long long>(t.checks),
                    t.budget_exhausted ? " (budget exhausted)" : "");
      }
    }
    const CampaignAggregate& agg = result.aggregate;
    std::printf(
        "  %s: %zu completed (%zu resumed), %zu quarantined | sessions %llu/%llu "
        "completed, frames %llu/%llu rendered, %llu packets lost, stall %.1fs\n",
        player, result.completed, result.resumed, result.quarantined,
        static_cast<unsigned long long>(agg.sessions_completed),
        static_cast<unsigned long long>(agg.sessions),
        static_cast<unsigned long long>(agg.frames_rendered),
        static_cast<unsigned long long>(agg.frames_rendered + agg.frames_dropped),
        static_cast<unsigned long long>(agg.packets_lost), agg.stall_time.to_seconds());
    if (o.chaos)
      std::printf(
          "  self-healing: %llu reroutes, %llu restores, %llu failovers, "
          "router-down stall %.1fs\n",
          static_cast<unsigned long long>(agg.reroutes),
          static_cast<unsigned long long>(agg.route_restores),
          static_cast<unsigned long long>(agg.failovers),
          agg.router_down_stall.to_seconds());
    if (o.repair().enabled())
      std::printf(
          "  repair: %llu packets recovered, %llu NACKs sent, %llu retx answered, "
          "%llu parity packets\n",
          static_cast<unsigned long long>(agg.packets_recovered),
          static_cast<unsigned long long>(agg.nacks_sent),
          static_cast<unsigned long long>(agg.retransmissions_sent),
          static_cast<unsigned long long>(agg.parity_packets));
    if (o.multipath)
      std::printf("  multipath: %llu path switches, %llu NACKs suppressed\n",
                  static_cast<unsigned long long>(agg.path_switches),
                  static_cast<unsigned long long>(agg.nack_suppressed));
    const std::size_t ran = result.trials.size() - result.resumed;
    if (ran > 0 && wall_seconds > 0.0) {
      std::printf("  throughput: %zu trials in %.2fs wall = %.2f trials/sec (workers=%zu)\n",
                  ran, wall_seconds, static_cast<double>(ran) / wall_seconds, cfg.workers);
    }
    if (result.manifest_torn_lines > 0)
      std::printf("  manifest: tolerated %zu torn trailing line(s) from an earlier crash\n",
                  result.manifest_torn_lines);
    if (o.distributed) {
      std::printf("  fleet: %zu worker(s) lost, %zu restart(s), %zu trial(s) reassigned",
                  result.workers_lost, result.worker_restarts, result.reassigned_trials);
      if (result.reassigned_trials > 0)
        std::printf(" (%.1f ms mean reassignment latency)",
                    static_cast<double>(result.reassignment_latency_ns) / 1e6 /
                        static_cast<double>(result.reassigned_trials));
      if (result.degraded_to_in_process)
        std::printf(" — fleet died, degraded to in-process execution");
      std::printf("\n");
    }
    if (result.interrupted) {
      // The manifest already holds every committed trial (flushed line by
      // line) and the aggregate above folded them; a re-run with the same
      // --manifest resumes exactly where this stopped.
      std::printf("  interrupted: %zu/%zu trials committed; manifest is resume-clean\n",
                  result.trials.size(), trials);
      return 130;
    }
    {
      // Cross-trial distribution digest (deterministic: folded in commit
      // order from integer-count sketches, identical at any worker count;
      // resumed trials re-fold from the manifest, so a fully-resumed run
      // prints the same digest the original did).
      const std::string digest = result.telemetry.summary();
      if (!digest.empty()) {
        std::printf("  telemetry (%llu trials folded):\n",
                    static_cast<unsigned long long>(result.telemetry.trials_folded()));
        std::size_t start = 0;
        while (start < digest.size()) {
          const std::size_t end = digest.find('\n', start);
          std::printf("    %s\n", digest.substr(start, end - start).c_str());
          if (end == std::string::npos) break;
          start = end + 1;
        }
      }
    }
    for (const std::string& path : result.postmortem_paths)
      std::printf("  post-mortem: %s\n", path.c_str());
    if (!result.ok()) {
      exit_code = 1;
      std::printf("  quarantined seeds:");
      for (std::uint64_t seed : result.quarantined_seeds())
        std::printf(" %llu", static_cast<unsigned long long>(seed));
      std::printf("\n");
    }
  }
  return exit_code;
}

// --fleet N: the city-scale flyweight trial. Prints wall-clock throughput
// (e2ebench's fleet workload times the same trial) plus the turbulence
// statistics; runs fully audited and, with --verify-determinism, twice.
int run_fleet_mode(std::size_t sessions, std::uint64_t seed,
                   bool verify_determinism) {
  FleetConfig config;
  config.sessions = sessions;
  config.seed = seed;

  audit::Auditor auditor;
  config.auditor = &auditor;

  const auto wall_start = std::chrono::steady_clock::now();
  const FleetResult r = run_fleet(config);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf("fleet: %llu sessions, seed=%llu\n",
              static_cast<unsigned long long>(r.sessions),
              static_cast<unsigned long long>(seed));
  std::printf("  sim time      %.2f s   wall %.3f s\n", r.sim_seconds,
              wall_seconds);
  std::printf("  throughput    %.0f sessions/s   %.0f events/s\n",
              wall_seconds > 0 ? static_cast<double>(r.sessions) / wall_seconds : 0.0,
              wall_seconds > 0 ? static_cast<double>(r.events_executed) / wall_seconds
                               : 0.0);
  std::printf("  events        %llu executed\n",
              static_cast<unsigned long long>(r.events_executed));
  std::printf("  packets       %llu sent, %llu delivered, %llu lost (%.2f%% delivered)\n",
              static_cast<unsigned long long>(r.packets_sent),
              static_cast<unsigned long long>(r.packets_delivered),
              static_cast<unsigned long long>(r.packets_lost),
              100.0 * r.delivery_ratio);
  std::printf("  rebuffering   %llu events across %llu sessions\n",
              static_cast<unsigned long long>(r.rebuffer_events),
              static_cast<unsigned long long>(r.sessions_rebuffered));
  std::printf("  table         %llu bytes (%.1f bytes/session)\n",
              static_cast<unsigned long long>(r.table_bytes), r.bytes_per_session);
  std::printf("  digest        %016llx\n",
              static_cast<unsigned long long>(r.digest));

  if (!auditor.report().clean()) {
    std::printf("  AUDIT VIOLATIONS:\n%s\n", auditor.report().summary().c_str());
    return 1;
  }
  std::printf("  audit         clean (%llu checks)\n",
              static_cast<unsigned long long>(auditor.report().checks_performed));

  if (verify_determinism) {
    const FleetResult replay = run_fleet(config);
    if (replay.digest != r.digest || replay.events_executed != r.events_executed) {
      std::printf("  DETERMINISM VIOLATION: replay digest %016llx != %016llx\n",
                  static_cast<unsigned long long>(replay.digest),
                  static_cast<unsigned long long>(r.digest));
      return 1;
    }
    std::printf("  determinism   verified (replay digest matches)\n");
  }
  return 0;
}

/// Scenario mode: runs the catalog scenarios the flags select, prints each
/// one's recovery metrics and writes the CSV exports. A scenario that dies
/// mid-flight still flushes the rows of every scenario finished so far.
int run_scenario_mode(const ClipSet& set, RateTier tier, const Options& o,
                      const std::string& export_dir) {
  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;

  // Runs the pair, or `clip` alone when given. One Obs per scenario: sim
  // time restarts at zero for every run, so each gets its own
  // registry/trace and its own export directory.
  const auto run_scenario = [&](const std::string& name, TurbulenceScenarioConfig cfg,
                                const ClipInfo* clip) {
    std::unique_ptr<obs::Obs> obs;
    if (!o.trace_dir.empty()) {
      obs = std::make_unique<obs::Obs>();
      cfg.obs = obs.get();
    }
    runs.emplace_back(name, clip != nullptr ? run_turbulence_clip(*clip, cfg)
                                            : run_turbulence_pair(set, tier, cfg));
    if (obs) {
      const std::string dir = o.trace_dir + "/" + name;
      const int files = obs::export_trace(*obs, dir);
      std::printf("trace: wrote %d files to %s\n", files, dir.c_str());
    }
  };

  try {
    const auto [real_clip, media_clip] = *set.pair(tier);
    for (const std::string_view name : scenario_names(o)) {
      const TurbulenceScenario& scenario = turbulence_scenario(name);
      const TurbulenceScenarioConfig cfg = scenario.config(o.repair());
      if (!scenario.per_player) run_scenario(std::string(name), cfg, nullptr);
      else
        for (const ClipInfo* clip : {&real_clip, &media_clip})
          run_scenario(std::string(name) + "-" + player_name(*clip), cfg, clip);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario failed after %zu completed run(s): %s\n", runs.size(),
                 e.what());
    const int written = export_turbulence(runs, export_dir);
    std::fprintf(stderr, "flushed %d partial CSV file(s) to %s\n", written,
                 export_dir.c_str());
    return 2;
  }

  for (const auto& [name, run] : runs) describe(name.c_str(), run);
  const int written = export_turbulence(runs, export_dir);
  std::printf("wrote %d CSV files to %s\n", written, export_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (const std::string error = parse_args(argc, argv, o); !error.empty())
    return usage_error(error);
  // Fleet mode stands alone: no clip catalog, no export dir — one loop,
  // N flyweight sessions.
  if (o.fleet_sessions > 0)
    return run_fleet_mode(o.fleet_sessions, o.base_seed, o.verify_determinism);

  const auto& pos = o.positional;
  const auto parsed_set = pos.size() > 0 ? parse_data_set(pos[0]) : 1;
  const auto parsed_tier = pos.size() > 1 ? parse_rate_tier(pos[1]) : RateTier::kLow;
  if (!parsed_set || !parsed_tier)
    return usage_error("set must be 1..6 and tier low, high or very-high");
  const int set_id = *parsed_set;
  const RateTier tier = *parsed_tier;
  const std::string export_dir = pos.size() > 2 ? pos[2] : "/tmp/streamlab_turbulence";
  const ClipSet& set = table1_catalog()[static_cast<std::size_t>(set_id - 1)];
  if (!set.pair(tier)) {
    std::fprintf(stderr, "set %d has no %s tier\n", set_id, to_string(tier).c_str());
    return 1;
  }

  // Worker mode: we are a child of a --distributed coordinator. Build the
  // identical trial-shaping config (the hello handshake verifies the
  // digest) and speak the pipe protocol until shutdown.
  if (!o.worker.empty()) {
    if (o.campaign_trials == 0) {
      std::fprintf(stderr, "--worker requires --campaign\n");
      return 1;
    }
    const auto [real_clip, media_clip] = *set.pair(tier);
    return campaign::run_campaign_worker(
        build_campaign_config(o.worker == "media" ? media_clip : real_clip, o));
  }

  if (o.campaign_trials == 0) return run_scenario_mode(set, tier, o, export_dir);

  // An interrupted study must keep its committed trials: the cooperative
  // cancel flag lets the campaign flush the manifest + aggregate and exit
  // nonzero instead of dying mid-write.
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::vector<std::string> worker_argv;
  if (o.distributed) {
    // Worker command line: this binary re-exec'd with our own arguments,
    // so every digest-relevant flag reaches the worker as given;
    // run_campaign_mode appends --worker <player>. The worker branch above
    // returns before any coordinator-only flag (--distributed, --workers,
    // --manifest, --trace) is used, so forwarding those is harmless.
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    worker_argv.emplace_back(n > 0 ? std::string(exe, static_cast<std::size_t>(n)) : argv[0]);
    worker_argv.insert(worker_argv.end(), argv + 1, argv + argc);
  }
  return run_campaign_mode(set, tier, o, worker_argv);
}
