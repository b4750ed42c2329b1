// The campaign's field tables: the config digest (pinned values, and every
// knob moves it), the player behaviours it folds, and the strict manifest
// codec driven by the trial-metric table.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "../campaign/tiny_campaign.hpp"
#include "util/arity.hpp"

namespace streamlab {
namespace {

using campaign_test::repair_campaign;
using campaign_test::tiny_campaign;

/// Self-healing chaos: a router dies on a detour-bridged path, the repair
/// plane reroutes, a mirror stands by.
CampaignConfig chaos_campaign() {
  CampaignConfig config = tiny_campaign(3);
  config.scenario.path.hop_count = 8;
  config.scenario.path.detour = DetourConfig{3, 4, 2, 10};
  config.scenario.repair = RouteRepairConfig{};
  config.scenario.mirror_server = true;
  config.scenario.episodes.clear();
  FaultEpisode down;
  down.kind = FaultKind::kRouterDown;
  down.router_index = 3;
  down.start = SimTime::from_seconds(1.0);
  down.duration = Duration::millis(1500);
  down.label = "router-down";
  config.scenario.episodes.push_back(down);
  return config;
}

CampaignConfig multipath_campaign() {
  CampaignConfig config = chaos_campaign();
  config.trials = 4;
  config.verify_determinism = true;
  config.scenario.recovery.inactivity_timeout = Duration::seconds(8);
  config.scenario.repair_layer.nack = true;
  config.scenario.multipath.enabled = true;
  return config;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Digests are what a resume checks manifests against: rewriting how they
/// are computed must not move any of them.
TEST(CampaignFields, ConfigDigestsArePinned) {
  EXPECT_EQ(hex(campaign_config_digest(tiny_campaign(6))), "3355c9e92690654b");
  EXPECT_EQ(hex(campaign_config_digest(repair_campaign(3))), "9c82eae12507470d");
  EXPECT_EQ(hex(campaign_config_digest(chaos_campaign())), "de46369c3dfe305f");
  EXPECT_EQ(hex(campaign_config_digest(multipath_campaign())), "49100df4a860b88c");
}

// --- Every digested knob moves the digest ---

template <class E>
E next(E e) {
  return static_cast<E>(static_cast<int>(e) + 1);
}

/// Every optional group present and enabled, so every knob is live.
CampaignConfig full_campaign() {
  CampaignConfig config = multipath_campaign();
  config.scenario.episodes.front().gilbert = GilbertElliottConfig{0.3, 0.25, 0.1, 0.6};
  return config;
}

using Knob = void (*)(CampaignConfig&);

// One perturbation per member; each list's static_assert pins it to the
// struct's member count, so a new member needs a line here too.
constexpr Knob kClipKnobs[] = {
    [](CampaignConfig& c) { ++c.clip.data_set; },
    [](CampaignConfig& c) { c.clip.content = next(c.clip.content); },
    [](CampaignConfig& c) { c.clip.player = next(c.clip.player); },
    [](CampaignConfig& c) { c.clip.tier = next(c.clip.tier); },
    [](CampaignConfig& c) { c.clip.encoded_rate = c.clip.encoded_rate + BitRate::bps(1); },
    [](CampaignConfig& c) { c.clip.advertised_rate = c.clip.advertised_rate + BitRate::bps(1); },
    [](CampaignConfig& c) { c.clip.length += Duration::nanos(1); },
};
static_assert(std::size(kClipKnobs) == aggregate_arity<ClipInfo>);

constexpr Knob kPathKnobs[] = {
    [](CampaignConfig& c) { ++c.scenario.path.hop_count; },
    [](CampaignConfig& c) { c.scenario.path.access_bandwidth = BitRate::mbps(11); },
    [](CampaignConfig& c) { c.scenario.path.backbone_bandwidth = BitRate::mbps(99); },
    [](CampaignConfig& c) { c.scenario.path.bottleneck_bandwidth = BitRate::mbps(9); },
    [](CampaignConfig& c) { c.scenario.path.one_way_propagation += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.path.jitter_stddev += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.path.loss_probability += 0.01; },
    [](CampaignConfig& c) { ++c.scenario.path.queue_limit_bytes; },
    [](CampaignConfig& c) { c.scenario.path.detour.reset(); },
};
static_assert(std::size(kPathKnobs) + 1 /* seed */ == aggregate_arity<PathConfig>);

constexpr Knob kDetourKnobs[] = {
    [](CampaignConfig& c) { ++c.scenario.path.detour->span_first; },
    [](CampaignConfig& c) { ++c.scenario.path.detour->span_last; },
    [](CampaignConfig& c) { ++c.scenario.path.detour->hops; },
    [](CampaignConfig& c) { ++c.scenario.path.detour->metric; },
};
static_assert(std::size(kDetourKnobs) == aggregate_arity<DetourConfig>);

constexpr Knob kRouteRepairKnobs[] = {
    [](CampaignConfig& c) { c.scenario.repair->detection_delay += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.repair->hold_down += Duration::nanos(1); },
};
static_assert(std::size(kRouteRepairKnobs) == aggregate_arity<RouteRepairConfig>);

constexpr Knob kRepairLayerKnobs[] = {
    [](CampaignConfig& c) { ++c.scenario.repair_layer.fec_k; },
    [](CampaignConfig& c) { ++c.scenario.repair_layer.fec_stride; },
    [](CampaignConfig& c) { c.scenario.repair_layer.nack = !c.scenario.repair_layer.nack; },
    [](CampaignConfig& c) { c.scenario.repair_layer.nack_rtt_multiplier += 0.25; },
    [](CampaignConfig& c) { c.scenario.repair_layer.nack_min_delay += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.repair_layer.nack_max_delay += Duration::nanos(1); },
    [](CampaignConfig& c) { ++c.scenario.repair_layer.nack_max_retries; },
    [](CampaignConfig& c) { ++c.scenario.repair_layer.nack_reorder_tolerance; },
    [](CampaignConfig& c) { ++c.scenario.repair_layer.retx_buffer_packets; },
    [](CampaignConfig& c) { c.scenario.repair_layer.pacer_rate_fraction += 0.25; },
    [](CampaignConfig& c) { ++c.scenario.repair_layer.pacer_burst_bytes; },
};
static_assert(std::size(kRepairLayerKnobs) == aggregate_arity<RepairLayerConfig>);

constexpr Knob kMultipathKnobs[] = {
    [](CampaignConfig& c) { c.scenario.multipath.enabled = false; },
    [](CampaignConfig& c) { ++c.scenario.multipath.primary_weight; },
    [](CampaignConfig& c) { ++c.scenario.multipath.detour_weight; },
    [](CampaignConfig& c) { c.scenario.multipath.loss_unhealthy += 0.01; },
    [](CampaignConfig& c) { c.scenario.multipath.loss_healthy += 0.01; },
    [](CampaignConfig& c) { c.scenario.multipath.ewma_alpha += 0.01; },
    [](CampaignConfig& c) { ++c.scenario.multipath.strike_limit; },
    [](CampaignConfig& c) { c.scenario.multipath.report_interval += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.multipath.hold_down += Duration::nanos(1); },
    [](CampaignConfig& c) { ++c.scenario.multipath.join_buffer_packets; },
    [](CampaignConfig& c) { c.scenario.multipath.join_hold += Duration::nanos(1); },
    [](CampaignConfig& c) { ++c.scenario.multipath.nack_reorder_tolerance; },
};
static_assert(std::size(kMultipathKnobs) + 2 /* client_alias, server_alias */ ==
              aggregate_arity<MultipathConfig>);

constexpr Knob kRecoveryKnobs[] = {
    [](CampaignConfig& c) { c.scenario.recovery.play_retry = !c.scenario.recovery.play_retry; },
    [](CampaignConfig& c) { c.scenario.recovery.play_timeout += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.recovery.backoff += 0.5; },
    [](CampaignConfig& c) { ++c.scenario.recovery.max_play_attempts; },
    [](CampaignConfig& c) { c.scenario.recovery.inactivity_timeout += Duration::nanos(1); },
};
static_assert(std::size(kRecoveryKnobs) == aggregate_arity<SessionRecoveryConfig>);

constexpr Knob kEpisodeKnobs[] = {
    [](CampaignConfig& c) { auto& e = c.scenario.episodes.front(); e.kind = next(e.kind); },
    [](CampaignConfig& c) { c.scenario.episodes.front().start += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.episodes.front().duration += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.episodes.front().bandwidth = BitRate::bps(1); },
    [](CampaignConfig& c) { c.scenario.episodes.front().extra_delay += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.episodes.front().loss_probability += 0.01; },
    [](CampaignConfig& c) { ++c.scenario.episodes.front().router_index; },
    [](CampaignConfig& c) { c.scenario.episodes.front().detour = true; },
};
// + gilbert (its own list) + label (a report tag).
static_assert(std::size(kEpisodeKnobs) + 2 == aggregate_arity<FaultEpisode>);

constexpr Knob kGilbertKnobs[] = {
    [](CampaignConfig& c) { c.scenario.episodes.front().gilbert.p_good_to_bad += 0.01; },
    [](CampaignConfig& c) { c.scenario.episodes.front().gilbert.p_bad_to_good += 0.01; },
    [](CampaignConfig& c) { c.scenario.episodes.front().gilbert.loss_good += 0.01; },
    [](CampaignConfig& c) { c.scenario.episodes.front().gilbert.loss_bad += 0.01; },
};
static_assert(std::size(kGilbertKnobs) == aggregate_arity<GilbertElliottConfig>);

constexpr Knob kWmKnobs[] = {
    [](CampaignConfig& c) { c.scenario.wm.frame_interval += Duration::nanos(1); },
    [](CampaignConfig& c) { ++c.scenario.wm.min_media_per_datagram; },
    [](CampaignConfig& c) { c.scenario.wm.preroll += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.wm.app_batch_interval += Duration::nanos(1); },
};
static_assert(std::size(kWmKnobs) == aggregate_arity<WmBehavior>);

constexpr Knob kRmKnobs[] = {
    [](CampaignConfig& c) { c.scenario.rm.ratio_at_low += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.ratio_exponent += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.ratio_floor += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.burst_at_low += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.rm.burst_at_high += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.rm.burst_max_fraction_of_clip += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.preroll += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.rm.size_cv += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.size_spread_min += 0.01; },
    [](CampaignConfig& c) { c.scenario.rm.size_spread_max += 0.01; },
    [](CampaignConfig& c) { ++c.scenario.rm.max_media_per_datagram; },
    [](CampaignConfig& c) { ++c.scenario.rm.min_media_per_datagram; },
    [](CampaignConfig& c) { c.scenario.rm.interarrival_cv += 0.01; },
};
static_assert(std::size(kRmKnobs) == aggregate_arity<RmBehavior>);

constexpr Knob kScenarioKnobs[] = {
    [](CampaignConfig& c) { c.scenario.max_sim_events += 1; },
    [](CampaignConfig& c) { c.scenario.max_wall_time += std::chrono::milliseconds(1); },
    [](CampaignConfig& c) { c.scenario.rebuffering = !c.scenario.rebuffering; },
    [](CampaignConfig& c) { c.scenario.max_stall += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.episodes.push_back(FaultEpisode{}); },
    [](CampaignConfig& c) { c.scenario.extra_sim_time += Duration::nanos(1); },
    [](CampaignConfig& c) { c.scenario.repair.reset(); },
    [](CampaignConfig& c) { ++c.scenario.repair_span_first; },
    [](CampaignConfig& c) { ++c.scenario.repair_span_last; },
    [](CampaignConfig& c) { c.scenario.mirror_server = !c.scenario.mirror_server; },
    [](CampaignConfig& c) { ++c.scenario.icmp_unreachable_threshold; },
};
// + path, wm, rm, recovery, repair_layer, multipath (their own lists) +
// seed, obs, auditor, probe (set per trial).
static_assert(std::size(kScenarioKnobs) + 6 + 4 == aggregate_arity<TurbulenceScenarioConfig>);

constexpr Knob kCampaignKnobs[] = {
    [](CampaignConfig& c) { ++c.trials; },
    [](CampaignConfig& c) { ++c.base_seed; },
    [](CampaignConfig& c) { c.verify_determinism = !c.verify_determinism; },
    [](CampaignConfig& c) { ++c.verify_seed_skew; },
};
// + scenario, clip (their own lists) + the execution and telemetry knobs
// exercised by ExecutionKnobsLeaveTheDigestAlone.
static_assert(std::size(kCampaignKnobs) + 2 + 9 == aggregate_arity<CampaignConfig>);

TEST(CampaignFields, EveryDigestedKnobMovesTheDigest) {
  const CampaignConfig base = full_campaign();
  const std::uint64_t base_digest = campaign_config_digest(base);
  const auto check = [&](const char* group, const auto& knobs) {
    for (std::size_t i = 0; i < std::size(knobs); ++i) {
      CampaignConfig changed = base;
      knobs[i](changed);
      EXPECT_NE(campaign_config_digest(changed), base_digest) << group << " knob #" << i;
    }
  };
  check("clip", kClipKnobs);
  check("path", kPathKnobs);
  check("detour", kDetourKnobs);
  check("route repair", kRouteRepairKnobs);
  check("repair layer", kRepairLayerKnobs);
  check("multipath", kMultipathKnobs);
  check("recovery", kRecoveryKnobs);
  check("episode", kEpisodeKnobs);
  check("gilbert", kGilbertKnobs);
  check("wm", kWmKnobs);
  check("rm", kRmKnobs);
  check("scenario", kScenarioKnobs);
  check("campaign", kCampaignKnobs);
}

/// Per-trial hooks and how the campaign runs never enter the digest: a
/// manifest resumes across them.
TEST(CampaignFields, ExecutionKnobsLeaveTheDigestAlone) {
  const CampaignConfig base = full_campaign();
  CampaignConfig changed = base;
  changed.scenario.seed += 7;
  changed.scenario.path.seed += 7;
  changed.scenario.episodes.front().label = "renamed";
  changed.scenario.multipath.client_alias = Ipv4Address(10, 9, 9, 9);
  changed.manifest_path = "elsewhere.ndjson";
  changed.workers = 3;
  changed.fault_hook = [](audit::Auditor&, std::size_t, std::uint64_t) {};
  changed.collect_telemetry = !changed.collect_telemetry;
  changed.flight_recorder_records += 1;
  changed.postmortem_prefix = "pm-";
  changed.progress_every = 5;
  changed.progress_hook = [](const CampaignProgress&) {};
  EXPECT_EQ(campaign_config_digest(changed), campaign_config_digest(base));
}

/// The player behaviours shape every trial: a resume under a different
/// preroll or buffering ratio must not mix trials. Default behaviours fold
/// nothing, which is what keeps the pinned digests above unchanged.
TEST(CampaignFields, PlayerBehavioursEnterTheDigest) {
  const CampaignConfig base = tiny_campaign(3);
  CampaignConfig wm = base;
  wm.scenario.wm.preroll = Duration::seconds(3);
  CampaignConfig rm = base;
  rm.scenario.rm.ratio_at_low = 2.5;
  EXPECT_NE(campaign_config_digest(wm), campaign_config_digest(base));
  EXPECT_NE(campaign_config_digest(rm), campaign_config_digest(base));
  EXPECT_NE(campaign_config_digest(wm), campaign_config_digest(rm));
}

// --- The manifest codec ---

/// A quarantined outcome carrying every optional member.
TrialOutcome full_outcome() {
  TrialOutcome t;
  t.index = 7;
  t.seed = 107;
  t.status = TrialStatus::kQuarantined;
  t.reason = "audit: planted";
  t.checks = 11;
  t.digest = 0xfeedbeefull;
  t.divergence = 42;
  std::uint64_t v = 1;
  TrialMetrics::for_each_metric([&](const char*, auto member) {
    if constexpr (std::is_same_v<decltype(t.*member), Duration&>)
      t.*member = Duration::nanos(static_cast<std::int64_t>(1000 * v++));
    else
      t.*member = v++;
  });
  t.attempts = 2;
  t.worker_exit_status = 137;
  t.stderr_tail = "killed";
  obs::TrialTelemetry telemetry;
  telemetry.set_tally("trial.sim_events", 5);
  t.telemetry = telemetry;
  return t;
}

const std::string kHex = "0123456789abcdef";

TEST(CampaignFields, EveryMetricRoundTripsAndFolds) {
  const TrialOutcome t = full_outcome();
  const TrialOutcome back =
      campaign_detail::parse_manifest_line(campaign_detail::manifest_line(t, kHex), kHex, 1);
  EXPECT_TRUE(back.from_manifest);
  EXPECT_EQ(back.divergence, t.divergence);
  EXPECT_EQ(back.attempts, t.attempts);
  EXPECT_EQ(back.worker_exit_status, t.worker_exit_status);
  EXPECT_EQ(back.stderr_tail, t.stderr_tail);
  ASSERT_TRUE(back.telemetry.has_value());
  EXPECT_EQ(back.telemetry->serialize(), t.telemetry->serialize());

  CampaignAggregate aggregate;
  aggregate.fold(back);
  aggregate.fold(t);
  EXPECT_EQ(aggregate.trials, 2u);
  TrialMetrics::for_each_metric([&](const char* key, auto member) {
    EXPECT_EQ(back.*member, t.*member) << key;
    EXPECT_EQ(aggregate.*member, t.*member + t.*member) << key;
  });
}

/// Control characters survive the manifest exactly (they used to be
/// flattened to spaces on write).
TEST(CampaignFields, ControlCharactersRoundTripExactly) {
  TrialOutcome t = full_outcome();
  t.reason = std::string("exception: \x1b[31mred\x01 \"quoted\" back\\slash\n");
  t.stderr_tail = std::string("tail\x01\x1f\x1b\t");
  const std::string line = campaign_detail::manifest_line(t, kHex);
  EXPECT_NE(line.find("\\u001b"), std::string::npos) << line;
  const TrialOutcome back = campaign_detail::parse_manifest_line(line, kHex, 1);
  EXPECT_EQ(back.reason, t.reason);
  EXPECT_EQ(back.stderr_tail, t.stderr_tail);
}

/// Parses `line` as manifest line 9 and returns the error it throws.
std::string parse_error(const std::string& line, std::size_t line_no = 9) {
  try {
    campaign_detail::parse_manifest_line(line, kHex, line_no);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(CampaignFields, StrictReaderRejectsUnknownDuplicateAndMissingKeys) {
  const std::string line = campaign_detail::manifest_line(full_outcome(), kHex);
  const std::string body = line.substr(0, line.size() - 1);
  EXPECT_EQ(parse_error(body + ",\"bogus\":1}"),
            "resume manifest line 9: unknown key \"bogus\"");
  EXPECT_EQ(parse_error(body + ",\"checks\":11}"),
            "resume manifest line 9: duplicate key \"checks\"");
  const std::size_t lost = line.find("\"packets_lost\":");
  const std::string without = line.substr(0, lost) + line.substr(line.find(',', lost) + 1);
  EXPECT_EQ(parse_error(without), "resume manifest line 9: missing key \"packets_lost\"");
  EXPECT_EQ(parse_error(line + " "),
            "resume manifest line 9: trailing bytes after the closing brace");
}

/// The distributed coordinator reads each worker's result line with the
/// same parse (tagged line 0): a worker speaking a different schema is
/// refused rather than half-read.
TEST(CampaignFields, CoordinatorRejectsWorkerLineWithUnknownKey) {
  CampaignConfig config = tiny_campaign(1);
  const std::string hex = campaign_detail::config_hex(config);
  const std::string line = campaign_detail::manifest_line(
      campaign_detail::run_trial(config, 0, hex, nullptr), hex);
  EXPECT_NO_THROW(campaign_detail::parse_manifest_line(line, hex, 0));
  const std::string foreign = line.substr(0, line.size() - 1) + ",\"jitter_ms\":3}";
  EXPECT_THROW(campaign_detail::parse_manifest_line(foreign, hex, 0), std::runtime_error);
}

}  // namespace
}  // namespace streamlab
