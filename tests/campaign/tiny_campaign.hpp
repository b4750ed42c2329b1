// Shared trial-shaping configs for the campaign tests and the
// campaign_worker_testbed binary. Coordinator (test process) and worker
// (child process) must build byte-for-byte the same CampaignConfig — the
// hello handshake compares config digests — so the one builder lives here.
#pragma once

#include <cstddef>

#include "core/campaign.hpp"

namespace streamlab::campaign_test {

inline ClipInfo tiny_clip() {
  ClipInfo clip;
  clip.data_set = 1;
  clip.content = ContentClass::kNews;
  clip.player = PlayerKind::kRealPlayer;
  clip.tier = RateTier::kLow;
  clip.encoded_rate = BitRate::kbps(33);
  clip.advertised_rate = BitRate::kbps(56);
  clip.length = Duration::seconds(5);
  return clip;
}

inline CampaignConfig tiny_campaign(std::size_t trials) {
  CampaignConfig config;
  config.clip = tiny_clip();
  config.trials = trials;
  config.base_seed = 100;
  config.scenario.path.hop_count = 2;
  config.scenario.path.one_way_propagation = Duration::millis(5);
  config.scenario.extra_sim_time = Duration::seconds(5);
  // One short outage mid-clip so every trial exercises the fault layer.
  FaultEpisode flap;
  flap.kind = FaultKind::kOutage;
  flap.start = SimTime::from_seconds(1.0);
  flap.duration = Duration::millis(500);
  flap.label = "flap";
  config.scenario.episodes.push_back(flap);
  return config;
}

/// tiny_campaign with FEC (k=8, stride 4) + NACK repair, and the outage
/// swapped for a burst-loss epoch: repair needs loss to repair. The tiny
/// 33 kbps clip carries few packets, so the epoch spans the whole trial and
/// keeps both GE states lossy — every seed sees losses to repair.
inline CampaignConfig repair_campaign(std::size_t trials) {
  CampaignConfig config = tiny_campaign(trials);
  config.scenario.episodes.clear();
  FaultEpisode burst;
  burst.kind = FaultKind::kBurstLoss;
  burst.start = SimTime::from_seconds(0.2);
  burst.duration = Duration::seconds(12);
  burst.gilbert = GilbertElliottConfig{0.3, 0.25, 0.1, 0.6};
  burst.label = "burst-loss";
  config.scenario.episodes.push_back(burst);
  config.scenario.repair_layer.fec_k = 8;
  config.scenario.repair_layer.fec_stride = 4;
  config.scenario.repair_layer.nack = true;
  return config;
}

}  // namespace streamlab::campaign_test
