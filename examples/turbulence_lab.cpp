// turbulence_lab: the paper's comparison run through *scripted* network
// turbulence. Streams the WM/RM pair of one clip set while the fault layer
// plays impairment episodes onto the bottleneck link — a short link flap
// the delay buffers should absorb, a long outage the inactivity watchdog
// must detect, a Gilbert–Elliott burst-loss epoch, and a congestion
// (bandwidth) dip — then prints each session's recovery metrics and writes
// the CSV exports.
//
// Usage: turbulence_lab [set 1-6] [low|high|very-high] [export-dir]
//                       [--trace <dir>] [--chaos] [--multipath]
//                       [--fec <k>] [--nack]
//                       [--campaign <N>] [--workers <N>] [--verify-determinism]
//                       [--manifest <path>] [--seed <base>]
//                       [--progress-every <n>] [--plant-quarantine <index>]
//                       [--distributed] [--max-worker-restarts <n>]
//                       [--kill-worker-after <n>]
//                       [--fleet <N>]
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
// (this binary re-exec'd with the hidden --worker flag) under the
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
// With --chaos the lab runs the self-healing scenarios instead of the link
// impairment set: a mid-stream router failure on a path with a detour
// segment (the route-repair control plane withdraws the primaries and the
// stream rides the detour), and the same failure without a detour but with
// a mirror server (the withdraw produces Destination Unreachable, the
// client fails over and resumes mid-clip). Combined with --campaign N the
// campaign trials run the detour-reroute chaos scenario.
//
// With --multipath the lab runs the flap-survival scenario: the server
// stripes each stream 2:1 across the chain and a detour branch
// (players/multipath.hpp) while the detour's first router flaps down/up
// three times. The health estimator drains the flapping subflow within a
// strike window, shifts the full load to the chain, and re-admits the
// detour after hold-down — the session rides every flap with zero mirror
// failovers, and the summary reports per-path loss/goodput, path switches,
// join-buffer reorder depth and suppressed NACKs. Combined with
// --campaign N the campaign trials run this scenario (taking precedence
// over --chaos trials).
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
// With --campaign N the lab switches to campaign mode: N audited burst-loss
// trials per player (seeds base..base+N-1) with per-trial budgets, quarantine
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
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/distributed.hpp"
#include "campaign/worker.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/fleet.hpp"
#include "core/turbulence.hpp"
#include "obs/export.hpp"
#include "util/strings.hpp"

using namespace streamlab;

namespace {

/// Repair layer selected by --fec/--nack; folded into every scenario config
/// (including the chaos and campaign variants) through base_config().
RepairLayerConfig g_repair;

/// --multipath: stripe the stream across the chain and the detour branch
/// with health-driven weights (players/multipath.hpp). Selects the
/// flap-survival chaos scenario and, with --campaign, multipath trials.
bool g_multipath = false;

TurbulenceScenarioConfig base_config() {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  cfg.repair_layer = g_repair;
  return cfg;
}

FaultEpisode router_down_episode(int router_index, double start_s, double duration_s) {
  FaultEpisode down;
  down.kind = FaultKind::kRouterDown;
  down.router_index = router_index;
  down.start = SimTime::from_seconds(start_s);
  down.duration = Duration::seconds(static_cast<std::int64_t>(duration_s));
  down.label = "router-down";
  return down;
}

/// Chaos scenario 1: router 3 dies mid-stream on a path with a detour
/// bridging span [3,4]; the repair plane reroutes within detection delay +
/// hold-down and converges back when the router returns.
TurbulenceScenarioConfig chaos_reroute_config() {
  TurbulenceScenarioConfig cfg = base_config();
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.mirror_server = true;  // dormant backstop; the detour should win
  cfg.episodes.push_back(router_down_episode(3, 30.0, 10.0));
  return cfg;
}

/// Chaos scenario 2: the same failure without a detour. The repair plane
/// still withdraws the span's primaries, so the boundary routers answer with
/// Destination Unreachable instead of black-holing; the client fails over
/// to the mirror and resumes once the outage clears.
TurbulenceScenarioConfig chaos_failover_config() {
  TurbulenceScenarioConfig cfg = base_config();
  cfg.repair = RouteRepairConfig{};
  cfg.repair_span_first = 3;
  cfg.repair_span_last = 4;
  cfg.mirror_server = true;
  // Enough PLAY budget (exponential backoff from 500 ms) to span the
  // 20 s outage after the ~8 s watchdog triggers the failover.
  cfg.recovery.max_play_attempts = 8;
  cfg.episodes.push_back(router_down_episode(3, 30.0, 20.0));
  return cfg;
}

FaultEpisode detour_down_episode(int detour_index, double start_s, double duration_s) {
  FaultEpisode down = router_down_episode(detour_index, start_s, duration_s);
  down.detour = true;
  down.label = "detour-down";
  return down;
}

/// --multipath chaos scenario: asymmetric-capacity striping (the chain
/// carries twice the detour's share) while the detour's first router flaps
/// — three down/up cycles the health estimator must ride by draining
/// subflow 1 onto the chain and re-admitting it after each hold-down. The
/// mirror stays dormant: flap survival means zero failovers.
TurbulenceScenarioConfig chaos_multipath_config() {
  TurbulenceScenarioConfig cfg = base_config();
  cfg.path.detour = DetourConfig{3, 4, 2, 10};
  cfg.repair = RouteRepairConfig{};
  cfg.mirror_server = true;
  cfg.multipath.enabled = true;
  cfg.multipath.primary_weight = 2;
  cfg.multipath.detour_weight = 1;
  // Striping's intended operating point includes NACK repair: media striped
  // onto the flapping path before each drain is re-requested over the
  // surviving chain (with the reorder-tolerance window keeping cross-path
  // skew from spraying spurious NACKs).
  cfg.repair_layer.nack = true;
  for (const double start : {25.0, 37.0, 49.0})
    cfg.episodes.push_back(detour_down_episode(0, start, 6.0));
  return cfg;
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
CampaignConfig build_campaign_config(const ClipInfo& clip, std::size_t trials,
                                     std::uint64_t base_seed, bool verify_determinism,
                                     bool chaos, long long plant_quarantine) {
  CampaignConfig cfg;
  cfg.clip = clip;
  cfg.trials = trials;
  cfg.base_seed = base_seed;
  cfg.verify_determinism = verify_determinism;
  if (g_multipath) {
    // Multipath trials: striped stream surviving a flapping detour router,
    // audited and replay-verified like any other campaign.
    cfg.scenario = chaos_multipath_config();
  } else if (chaos) {
    // Self-healing trials: router failure + detour reroute (mirror armed
    // as backstop), audited and replay-verified like any other campaign.
    cfg.scenario = chaos_reroute_config();
  } else {
    cfg.scenario = base_config();
    FaultEpisode burst;
    burst.kind = FaultKind::kBurstLoss;
    burst.start = SimTime::from_seconds(20.0);
    burst.duration = Duration::seconds(25);
    burst.gilbert = GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
    burst.label = "burst-loss";
    cfg.scenario.episodes.push_back(burst);
  }
  // Budgets: generous enough that healthy trials never hit them, tight
  // enough that a runaway trial is truncated instead of hanging the lab.
  cfg.scenario.max_sim_events = 50'000'000;
  cfg.scenario.max_wall_time = std::chrono::seconds(120);
  if (plant_quarantine >= 0) {
    cfg.fault_hook = [plant_quarantine](audit::Auditor& auditor, std::size_t index,
                                        std::uint64_t) {
      if (index == static_cast<std::size_t>(plant_quarantine))
        auditor.force_violation("planted by --plant-quarantine");
    };
  }
  return cfg;
}

/// --distributed knobs gathered from the CLI, plus the worker command line
/// (this binary + the coordinator's own arguments, minus the per-player
/// --worker selector appended in run_campaign_mode).
struct DistributedCli {
  bool enabled = false;
  std::size_t max_worker_restarts = 2;
  std::size_t kill_worker_after = 0;
  std::vector<std::string> worker_argv_base;
};

/// Campaign mode: N audited trials of the burst-loss scenario per player.
/// Returns the process exit code (nonzero when any trial was quarantined).
int run_campaign_mode(const ClipSet& set, RateTier tier, std::size_t trials,
                      std::uint64_t base_seed, bool verify_determinism,
                      const std::string& manifest_path, std::size_t workers,
                      bool chaos, std::size_t progress_every,
                      long long plant_quarantine, const DistributedCli& distrib) {
  const auto [real_clip, media_clip] = *set.pair(tier);
  int exit_code = 0;
  for (const ClipInfo* clip : {&real_clip, &media_clip}) {
    CampaignConfig cfg = build_campaign_config(*clip, trials, base_seed,
                                               verify_determinism, chaos,
                                               plant_quarantine);
    cfg.workers = workers;
    cfg.cancel = &g_cancel;
    const char* player = clip->player == PlayerKind::kMediaPlayer ? "media" : "real";
    if (!manifest_path.empty()) cfg.manifest_path = manifest_path + "." + player;
    if (progress_every > 0) {
      cfg.progress_every = progress_every;
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
                verify_determinism ? "  (verifying determinism)" : "",
                distrib.enabled ? "  (distributed)" : "");
    CampaignResult result;
    const auto wall_start = std::chrono::steady_clock::now();
    try {
      if (distrib.enabled) {
        campaign::DistributedOptions opts;
        opts.worker_argv = distrib.worker_argv_base;
        opts.worker_argv.push_back("--worker");
        opts.worker_argv.push_back(player);
        // --workers 0 means "one per hardware thread" for the in-process
        // pool; for process workers default to the CI smoke's fleet of 4.
        opts.workers = workers > 0 ? workers : 4;
        opts.max_worker_restarts = distrib.max_worker_restarts;
        opts.kill_worker_after = distrib.kill_worker_after;
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
    if (chaos)
      std::printf(
          "  self-healing: %llu reroutes, %llu restores, %llu failovers, "
          "router-down stall %.1fs\n",
          static_cast<unsigned long long>(agg.reroutes),
          static_cast<unsigned long long>(agg.route_restores),
          static_cast<unsigned long long>(agg.failovers),
          agg.router_down_stall.to_seconds());
    if (g_repair.enabled())
      std::printf(
          "  repair: %llu packets recovered, %llu NACKs sent, %llu retx answered, "
          "%llu parity packets\n",
          static_cast<unsigned long long>(agg.packets_recovered),
          static_cast<unsigned long long>(agg.nacks_sent),
          static_cast<unsigned long long>(agg.retransmissions_sent),
          static_cast<unsigned long long>(agg.parity_packets));
    if (g_multipath)
      std::printf("  multipath: %llu path switches, %llu NACKs suppressed\n",
                  static_cast<unsigned long long>(agg.path_switches),
                  static_cast<unsigned long long>(agg.nack_suppressed));
    const std::size_t ran = result.trials.size() - result.resumed;
    if (ran > 0 && wall_seconds > 0.0) {
      std::printf("  throughput: %zu trials in %.2fs wall = %.2f trials/sec (workers=%zu)\n",
                  ran, wall_seconds, static_cast<double>(ran) / wall_seconds, workers);
    }
    if (result.manifest_torn_lines > 0)
      std::printf("  manifest: tolerated %zu torn trailing line(s) from an earlier crash\n",
                  result.manifest_torn_lines);
    if (distrib.enabled) {
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

}  // namespace

int main(int argc, char** argv) {
  std::string trace_dir;
  std::string manifest_path;
  std::size_t campaign_trials = 0;
  std::size_t campaign_workers = 0;  // 0 = one per hardware thread
  std::size_t fleet_sessions = 0;
  std::uint64_t base_seed = 1;
  std::size_t progress_every = 0;
  long long plant_quarantine = -1;
  bool verify_determinism = false;
  bool chaos = false;
  DistributedCli distrib;
  std::string worker_player;  // hidden --worker <media|real>: run as a child
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    // A numeric flag's whole value must parse and fit `out` (so no sign on
    // an unsigned one), or the lab exits naming the flag.
    const auto number = [&]<class T>(const char* flag, T& out) {
      const char* text = flag_value(flag);
      const char* end = text + std::strlen(text);
      if (const auto [ptr, ec] = std::from_chars(text, end, out); ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "%s needs a whole number that fits, got '%s'\n", flag, text);
        std::exit(1);
      }
    };
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_dir = flag_value("--trace");
    } else if (std::strcmp(argv[i], "--campaign") == 0) {
      number("--campaign", campaign_trials);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      number("--workers", campaign_workers);
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      number("--fleet", fleet_sessions);
      if (fleet_sessions == 0) {
        std::fprintf(stderr, "--fleet needs a positive session count\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--manifest") == 0) {
      manifest_path = flag_value("--manifest");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      number("--seed", base_seed);
    } else if (std::strcmp(argv[i], "--progress-every") == 0) {
      number("--progress-every", progress_every);
    } else if (std::strcmp(argv[i], "--plant-quarantine") == 0) {
      number("--plant-quarantine", plant_quarantine);
    } else if (std::strcmp(argv[i], "--fec") == 0) {
      int k = 0;
      number("--fec", k);
      if (k < 1 || k > 64) {
        std::fprintf(stderr, "--fec k must be 1..64\n");
        return 1;
      }
      g_repair.fec_k = static_cast<std::uint8_t>(k);
      // Interleave depth 4: the burst-loss regime's mean burst length, so a
      // whole burst lands in distinct parity rows and stays recoverable.
      g_repair.fec_stride = 4;
    } else if (std::strcmp(argv[i], "--nack") == 0) {
      g_repair.nack = true;
    } else if (std::strcmp(argv[i], "--multipath") == 0) {
      g_multipath = true;
    } else if (std::strcmp(argv[i], "--verify-determinism") == 0) {
      verify_determinism = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--distributed") == 0) {
      distrib.enabled = true;
    } else if (std::strcmp(argv[i], "--max-worker-restarts") == 0) {
      number("--max-worker-restarts", distrib.max_worker_restarts);
    } else if (std::strcmp(argv[i], "--kill-worker-after") == 0) {
      number("--kill-worker-after", distrib.kill_worker_after);
    } else if (std::strcmp(argv[i], "--worker") == 0) {
      worker_player = flag_value("--worker");
    } else {
      positional.push_back(argv[i]);
    }
  }
  // Fleet mode stands alone: no clip catalog, no export dir — one loop,
  // N flyweight sessions.
  if (fleet_sessions > 0)
    return run_fleet_mode(fleet_sessions, base_seed, verify_determinism);

  const auto parsed_set = positional.size() > 0 ? parse_data_set(positional[0]) : 1;
  const auto parsed_tier =
      positional.size() > 1 ? parse_rate_tier(positional[1]) : RateTier::kLow;
  if (!parsed_set || !parsed_tier) {
    std::fprintf(stderr, "set must be 1..6 and tier low, high or very-high\n");
    return 1;
  }
  const int set_id = *parsed_set;
  const RateTier tier = *parsed_tier;
  const std::string export_dir =
      positional.size() > 2 ? positional[2] : "/tmp/streamlab_turbulence";
  const ClipSet& set = table1_catalog()[static_cast<std::size_t>(set_id - 1)];
  if (!set.pair(tier)) {
    std::fprintf(stderr, "set %d has no %s tier\n", set_id, to_string(tier).c_str());
    return 1;
  }

  // Hidden worker mode: we are a child of a --distributed coordinator.
  // Build the identical trial-shaping config (the hello handshake verifies
  // the digest) and speak the pipe protocol until shutdown.
  if (!worker_player.empty()) {
    if (campaign_trials == 0) {
      std::fprintf(stderr, "--worker requires --campaign\n");
      return 1;
    }
    const auto [real_clip, media_clip] = *set.pair(tier);
    const ClipInfo& clip = worker_player == "media" ? media_clip : real_clip;
    const CampaignConfig cfg = build_campaign_config(
        clip, campaign_trials, base_seed, verify_determinism, chaos, plant_quarantine);
    return campaign::run_campaign_worker(cfg);
  }

  if (campaign_trials > 0) {
    // An interrupted study must keep its committed trials: the cooperative
    // cancel flag lets the campaign flush the manifest + aggregate and
    // exit nonzero instead of dying mid-write.
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    if (distrib.enabled) {
      // Worker command line: this binary re-exec'd with our own arguments,
      // so every digest-relevant flag reaches the worker as given;
      // run_campaign_mode appends --worker <player>. The worker branch above
      // returns before any coordinator-only flag (--distributed, --workers,
      // --manifest, --trace) is used, so forwarding those is harmless.
      char exe[4096];
      const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
      std::string exe_path;
      if (n > 0) {
        exe[n] = '\0';
        exe_path = exe;
      } else {
        exe_path = argv[0];
      }
      distrib.worker_argv_base = {exe_path};
      distrib.worker_argv_base.insert(distrib.worker_argv_base.end(), argv + 1, argv + argc);
    }
    return run_campaign_mode(set, tier, campaign_trials, base_seed, verify_determinism,
                             manifest_path, campaign_workers, chaos, progress_every,
                             plant_quarantine, distrib);
  }

  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;

  // Runs the pair, or `clip` alone when given. One Obs per scenario: sim
  // time restarts at zero for every run, so each gets its own
  // registry/trace and its own export directory.
  const auto run_scenario = [&](const std::string& name, TurbulenceScenarioConfig cfg,
                                const ClipInfo* clip = nullptr) {
    std::unique_ptr<obs::Obs> obs;
    if (!trace_dir.empty()) {
      obs = std::make_unique<obs::Obs>();
      cfg.obs = obs.get();
    }
    runs.emplace_back(name, clip != nullptr ? run_turbulence_clip(*clip, cfg)
                                            : run_turbulence_pair(set, tier, cfg));
    if (obs) {
      const std::string dir = trace_dir + "/" + name;
      const int files = obs::export_trace(*obs, dir);
      std::printf("trace: wrote %d files to %s\n", files, dir.c_str());
    }
  };

  // Chaos (self-healing) scenarios: a paired run over the detour topology,
  // then per-player mirror-failover runs (the pair harness is
  // single-server, so failover uses the clip form).
  if (chaos || g_multipath) {
    const auto clip_pair = *set.pair(tier);
    // Mirror/multipath scenarios are single-server per session, so they use
    // the clip form, one run per player.
    try {
      if (chaos) {
        run_scenario("router-down-reroute", chaos_reroute_config());
        for (const ClipInfo* clip : {&clip_pair.first, &clip_pair.second}) {
          const std::string name =
              std::string("router-down-failover-") +
              (clip->player == PlayerKind::kMediaPlayer ? "media" : "real");
          run_scenario(name, chaos_failover_config(), clip);
        }
      }
      if (g_multipath) {
        for (const ClipInfo* clip : {&clip_pair.first, &clip_pair.second}) {
          const std::string name =
              std::string("multipath-flap-") +
              (clip->player == PlayerKind::kMediaPlayer ? "media" : "real");
          run_scenario(name, chaos_multipath_config(), clip);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos scenario failed after %zu completed run(s): %s\n",
                   runs.size(), e.what());
      return 2;
    }
    for (const auto& [name, run] : runs) describe(name.c_str(), run);
    const int written = export_turbulence(runs, export_dir);
    std::printf("wrote %d CSV files to %s\n", written, export_dir.c_str());
    return 0;
  }

  try {
  // 1. A 4 s link flap at t=30s: shorter than the delay buffers, so both
  //    players should ride it out and complete playback.
  {
    TurbulenceScenarioConfig cfg = base_config();
    FaultEpisode flap;
    flap.kind = FaultKind::kOutage;
    flap.start = SimTime::from_seconds(30.0);
    flap.duration = Duration::seconds(4);
    flap.label = "short-flap";
    cfg.episodes.push_back(flap);
    run_scenario("short-outage", std::move(cfg));
  }

  // 2. A 30 s outage: longer than the 8 s inactivity window, so the
  //    watchdogs must declare both streams dead instead of hanging.
  {
    TurbulenceScenarioConfig cfg = base_config();
    FaultEpisode outage;
    outage.kind = FaultKind::kOutage;
    outage.start = SimTime::from_seconds(30.0);
    outage.duration = Duration::seconds(30);
    outage.label = "long-outage";
    cfg.episodes.push_back(outage);
    run_scenario("long-outage", std::move(cfg));
  }

  // 3. A Gilbert–Elliott burst-loss epoch (congested peering point).
  {
    TurbulenceScenarioConfig cfg = base_config();
    FaultEpisode burst;
    burst.kind = FaultKind::kBurstLoss;
    burst.start = SimTime::from_seconds(20.0);
    burst.duration = Duration::seconds(25);
    burst.gilbert = GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
    burst.label = "burst-loss";
    cfg.episodes.push_back(burst);
    run_scenario("burst-loss", std::move(cfg));
  }

  // 4. A congestion dip: bottleneck throttled to 200 Kbps with extra delay.
  {
    TurbulenceScenarioConfig cfg = base_config();
    FaultEpisode dip;
    dip.kind = FaultKind::kBandwidth;
    dip.start = SimTime::from_seconds(25.0);
    dip.duration = Duration::seconds(15);
    dip.bandwidth = BitRate::kbps(200);
    dip.label = "congestion-dip";
    cfg.episodes.push_back(dip);
    FaultEpisode lag;
    lag.kind = FaultKind::kExtraDelay;
    lag.start = SimTime::from_seconds(40.0);
    lag.duration = Duration::seconds(10);
    lag.extra_delay = Duration::millis(150);
    lag.label = "delay-spike";
    cfg.episodes.push_back(lag);
    run_scenario("congestion-dip", std::move(cfg));
  }
  } catch (const std::exception& e) {
    // A scenario died mid-flight. Flush the rows of every scenario that
    // finished so the partial CSVs are salvageable, then fail loudly.
    std::fprintf(stderr, "scenario failed after %zu completed run(s): %s\n",
                 runs.size(), e.what());
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
