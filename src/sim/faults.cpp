#include "sim/faults.hpp"

#include <algorithm>

#include "sim/network.hpp"

namespace streamlab {

bool GilbertElliottLoss::drop(Rng& rng) {
  // Transition first, then draw loss from the new state: a burst's first
  // packet is already subject to loss_bad, matching the standard
  // discrete-time formulation.
  if (bad_) {
    if (rng.chance(config_.p_bad_to_good)) bad_ = false;
  } else {
    if (rng.chance(config_.p_good_to_bad)) bad_ = true;
  }
  const double p = bad_ ? config_.loss_bad : config_.loss_good;
  return p > 0.0 && rng.chance(p);
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage: return "outage";
    case FaultKind::kBandwidth: return "bandwidth";
    case FaultKind::kExtraDelay: return "extra-delay";
    case FaultKind::kBurstLoss: return "burst-loss";
    case FaultKind::kRandomLoss: return "random-loss";
    case FaultKind::kRouterDown: return "router-down";
  }
  return "unknown";
}

FaultScheduler::~FaultScheduler() {
  finish();
  for (EventHandle& h : handles_) h.cancel();
}

void FaultScheduler::finish() {
  // Router-down episodes dangling at the trial horizon settle exactly like
  // link episodes: drop accounting closed, obs span ended, baseline (router
  // online) restored.
  for (const auto& [index, state] : open_router_downs_) settle_router(index, state);
  open_router_downs_.clear();
  if (active_ < 0) return;
  close_accounting(static_cast<std::size_t>(active_));
  link_.clear_impairment();
  active_ = -1;
}

void FaultScheduler::add(FaultEpisode episode) {
  records_.push_back(EpisodeRecord{std::move(episode)});
}

void FaultScheduler::add_outage(SimTime start, Duration duration, std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kOutage;
  e.start = start;
  e.duration = duration;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_bandwidth(SimTime start, Duration duration, BitRate bandwidth,
                                   std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kBandwidth;
  e.start = start;
  e.duration = duration;
  e.bandwidth = bandwidth;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_extra_delay(SimTime start, Duration duration,
                                     Duration extra_delay, std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kExtraDelay;
  e.start = start;
  e.duration = duration;
  e.extra_delay = extra_delay;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_burst_loss(SimTime start, Duration duration,
                                    GilbertElliottConfig config, std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kBurstLoss;
  e.start = start;
  e.duration = duration;
  e.gilbert = config;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_random_loss(SimTime start, Duration duration, double probability,
                                     std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kRandomLoss;
  e.start = start;
  e.duration = duration;
  e.loss_probability = probability;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_router_down(SimTime start, Duration duration, int router_index,
                                     std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kRouterDown;
  e.start = start;
  e.duration = duration;
  e.router_index = router_index;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::add_detour_down(SimTime start, Duration duration, int detour_index,
                                     std::string label) {
  FaultEpisode e;
  e.kind = FaultKind::kRouterDown;
  e.start = start;
  e.duration = duration;
  e.router_index = detour_index;
  e.detour = true;
  e.label = std::move(label);
  add(std::move(e));
}

void FaultScheduler::arm() {
  if (armed_) return;
  armed_ = true;
  std::stable_sort(records_.begin(), records_.end(),
                   [](const EpisodeRecord& a, const EpisodeRecord& b) {
                     return a.episode.start < b.episode.start;
                   });
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const FaultEpisode& e = records_[i].episode;
    if (e.kind == FaultKind::kRouterDown) {
      handles_.push_back(loop_.schedule_at(e.start, [this, i] { apply_router(i); },
                                           obs::EventCategory::kFault));
      handles_.push_back(loop_.schedule_at(e.end(), [this, i] { clear_router(i); },
                                           obs::EventCategory::kFault));
      continue;
    }
    handles_.push_back(
        loop_.schedule_at(e.start, [this, i] { apply(i); }, obs::EventCategory::kFault));
    handles_.push_back(
        loop_.schedule_at(e.end(), [this, i] { clear(i); }, obs::EventCategory::kFault));
  }
}

void FaultScheduler::apply_router(std::size_t index) {
  EpisodeRecord& rec = records_[index];
  const FaultEpisode& e = rec.episode;
  const int bound = network_ == nullptr ? 0
                    : e.detour           ? network_->detour_hop_count()
                                         : network_->hop_count();
  if (network_ == nullptr || e.router_index < 0 || e.router_index >= bound) {
    // No network attached (or a bogus index): the episode is unschedulable.
    // Mark it settled so finish() and reports see no dangling record.
    rec.applied = true;
    rec.cleared = true;
    return;
  }
  RouterDownState state;
  state.baseline = drops_for_kind(FaultKind::kRouterDown);
  rec.applied = true;
  // Chain routers key the depth map by index, detour routers by -(index+1):
  // overlapping episodes on the same branch nest, while chain and detour
  // episodes sharing an index stay independent.
  const int depth_key = e.detour ? -(e.router_index + 1) : e.router_index;
  ++router_down_depth_[depth_key];
  Router& target = e.detour ? network_->detour_router(e.router_index)
                            : network_->router(e.router_index);
  target.set_offline(true);
  if (obs::Obs* obs = loop_.observer(); obs != nullptr && obs->tracing()) {
    obs::Tracer& tracer = obs->tracer();
    const std::uint16_t name = tracer.intern(
        std::string("fault:") + to_string(e.kind) +
        (e.label.empty() ? std::string() : ":" + e.label));
    state.span = tracer.begin_span(name, tracer.intern("faults"), loop_.now());
  }
  open_router_downs_[index] = state;
}

void FaultScheduler::clear_router(std::size_t index) {
  const auto it = open_router_downs_.find(index);
  if (it == open_router_downs_.end()) return;  // never applied, or settled by finish()
  settle_router(index, it->second);
  open_router_downs_.erase(it);
}

void FaultScheduler::settle_router(std::size_t index, const RouterDownState& state) {
  EpisodeRecord& rec = records_[index];
  // Network-wide differencing: overlapping router-down episodes each charge
  // themselves for drops inside the overlap, mirroring how a pre-empting
  // link episode takes over the drop stream.
  rec.packets_dropped += drops_for_kind(FaultKind::kRouterDown) - state.baseline;
  rec.cleared = true;
  const int router_index = rec.episode.router_index;
  const int depth_key = rec.episode.detour ? -(router_index + 1) : router_index;
  if (--router_down_depth_[depth_key] == 0) {
    Router& target = rec.episode.detour ? network_->detour_router(router_index)
                                        : network_->router(router_index);
    target.set_offline(false);
  }
  if (state.span != 0) {
    if (obs::Obs* obs = loop_.observer(); obs != nullptr)
      obs->tracer().end_span(state.span, loop_.now());
  }
}

void FaultScheduler::apply(std::size_t index) {
  EpisodeRecord& rec = records_[index];
  const FaultEpisode& e = rec.episode;

  // A later episode pre-empts a still-active earlier one: settle the
  // earlier episode's drop accounting before the override replaces it.
  if (active_ >= 0) close_accounting(static_cast<std::size_t>(active_));

  LinkImpairment imp;
  switch (e.kind) {
    case FaultKind::kOutage:
      imp.outage = true;
      break;
    case FaultKind::kBandwidth:
      imp.bandwidth = e.bandwidth;
      break;
    case FaultKind::kExtraDelay:
      imp.extra_delay = e.extra_delay;
      break;
    case FaultKind::kBurstLoss: {
      auto chain = std::make_shared<GilbertElliottLoss>(e.gilbert);
      chains_.push_back(chain);
      imp.loss_model = [chain](Rng& rng) { return chain->drop(rng); };
      break;
    }
    case FaultKind::kRandomLoss:
      imp.loss_probability = e.loss_probability;
      break;
    case FaultKind::kRouterDown:
      break;  // dispatched to apply_router() by arm(); never reaches here
  }
  link_.set_impairment(std::move(imp));
  rec.applied = true;
  active_ = static_cast<int>(index);
  drops_at_apply_ = drops_for_kind(e.kind);

  // Episode span on the shared "faults" track: begin here, end when the
  // episode clears or a successor pre-empts it.
  if (obs::Obs* obs = loop_.observer(); obs != nullptr && obs->tracing()) {
    obs::Tracer& tracer = obs->tracer();
    const std::uint16_t name = tracer.intern(
        std::string("fault:") + to_string(e.kind) +
        (e.label.empty() ? std::string() : ":" + e.label));
    active_span_ = tracer.begin_span(name, tracer.intern("faults"), loop_.now());
  }
}

std::uint64_t FaultScheduler::drops_for_kind(FaultKind kind) const {
  const Link::DirectionStats& a = link_.stats_a_to_b();
  const Link::DirectionStats& b = link_.stats_b_to_a();
  switch (kind) {
    case FaultKind::kOutage:
      return a.packets_dropped_outage + b.packets_dropped_outage;
    case FaultKind::kBurstLoss:
      return a.packets_dropped_burst + b.packets_dropped_burst;
    case FaultKind::kRandomLoss:
      return a.packets_dropped_loss + b.packets_dropped_loss;
    case FaultKind::kBandwidth:
    case FaultKind::kExtraDelay:
      // These episodes don't override loss; any random-loss drops during
      // them come from the baseline config and are not the episode's doing.
      return 0;
    case FaultKind::kRouterDown: {
      // Network-wide offline swallows: a downed router is the only producer.
      if (network_ == nullptr) return 0;
      std::uint64_t total = 0;
      for (const Router* r : network_->routers()) total += r->stats().packets_dropped_offline;
      for (const Router* r : network_->detour_routers())
        total += r->stats().packets_dropped_offline;
      return total;
    }
  }
  return 0;
}

void FaultScheduler::close_accounting(std::size_t index) {
  EpisodeRecord& rec = records_[index];
  rec.packets_dropped += drops_for_kind(rec.episode.kind) - drops_at_apply_;
  rec.cleared = true;
  if (active_span_ != 0) {
    if (obs::Obs* obs = loop_.observer(); obs != nullptr)
      obs->tracer().end_span(active_span_, loop_.now());
    active_span_ = 0;
  }
}

void FaultScheduler::clear(std::size_t index) {
  // Only the episode that currently owns the impairment may clear it; a
  // pre-empted episode's end event must not cancel its successor.
  if (active_ != static_cast<int>(index)) {
    records_[index].cleared = true;
    return;
  }
  close_accounting(index);
  link_.clear_impairment();
  active_ = -1;
}

std::uint64_t FaultScheduler::total_episode_drops() const {
  std::uint64_t total = 0;
  for (const EpisodeRecord& r : records_) total += r.packets_dropped;
  return total;
}

}  // namespace streamlab
