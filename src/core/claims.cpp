#include "core/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>

#include "analysis/histogram.hpp"
#include "analysis/stats.hpp"
#include "core/figures.hpp"

namespace streamlab {

bool ClaimBound::admits(double v) const {
  if (std::isnan(v)) return false;
  if (lower && !(lower->inclusive ? v >= lower->value : v > lower->value)) return false;
  if (upper && !(upper->inclusive ? v <= upper->value : v < upper->value)) return false;
  return true;
}

std::string ClaimBound::describe() const {
  char buf[64] = "any";
  if (lower && upper && lower->inclusive && upper->inclusive && lower->value == upper->value)
    std::snprintf(buf, sizeof buf, "= %g", lower->value);
  else if (lower && upper)
    std::snprintf(buf, sizeof buf, "%s%g, %g%s", lower->inclusive ? "[" : "(", lower->value,
                  upper->value, upper->inclusive ? "]" : ")");
  else if (lower)
    std::snprintf(buf, sizeof buf, "%s %g", lower->inclusive ? "≥" : ">", lower->value);
  else if (upper)
    std::snprintf(buf, sizeof buf, "%s %g", upper->inclusive ? "≤" : "<", upper->value);
  return buf;
}

ClaimBound above(double v) { return {BoundEdge{v, false}, std::nullopt}; }
ClaimBound at_least(double v) { return {BoundEdge{v, true}, std::nullopt}; }
ClaimBound below(double v) { return {std::nullopt, BoundEdge{v, false}}; }
ClaimBound at_most(double v) { return {std::nullopt, BoundEdge{v, true}}; }
ClaimBound within(double lo, double hi) { return {BoundEdge{lo, true}, BoundEdge{hi, true}}; }
ClaimBound between(double lo, double hi) { return {BoundEdge{lo, false}, BoundEdge{hi, false}}; }

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A clip the claim reads. Claims are measured on the full study, so a
/// missing clip is an error, not a vacuous pass.
const ClipRunResult& clip(const StudyResults& s, std::string_view id) {
  if (const auto* c = s.find(id)) return *c;
  throw std::runtime_error("no study result for clip " + std::string(id));
}

/// The smallest (or largest) f(item) over items: the worst case of a
/// per-clip or per-run claim. NaN when there are no items or any f is NaN.
template <class Range, class F>
double worst(const Range& items, bool largest, F f) {
  double out = kNaN;
  bool first = true;
  for (const auto& item : items) {
    const double v = f(item);
    if (std::isnan(v)) return kNaN;
    out = first ? v : (largest ? std::max(out, v) : std::min(out, v));
    first = false;
  }
  return out;
}
template <class Range, class F>
double min_of(const Range& items, F f) { return worst(items, false, f); }
template <class Range, class F>
double max_of(const Range& items, F f) { return worst(items, true, f); }

template <class Pred>
std::vector<const PairRunResult*> runs_where(const StudyResults& s, Pred pred) {
  std::vector<const PairRunResult*> out;
  for (const auto& run : s.runs)
    if (pred(run)) out.push_back(&run);
  return out;
}

/// The share of values satisfying pred; NaN when empty.
template <class Pred>
double share(const std::vector<double>& values, Pred pred) {
  if (values.empty()) return kNaN;
  const auto n = std::count_if(values.begin(), values.end(), pred);
  return static_cast<double>(n) / static_cast<double>(values.size());
}

double median(const std::vector<double>& values) {
  return values.empty() ? kNaN : quantile(values, 0.5);
}

double fps(const ClipRunResult& c) { return c.tracker.average_frame_rate; }
double hops(const PairRunResult& run) {
  return run.route.reached ? static_cast<double>(run.route.hop_count()) : kNaN;
}
double streaming_gap_s(const PairRunResult& run) {
  return run.media.server_streaming_duration.to_seconds() -
         run.real.server_streaming_duration.to_seconds();
}

/// Figure 4's wire pattern: every packet of a fragment group but its tail
/// is 1514 bytes. `checked` counts the non-tail packets.
struct GroupWire {
  std::size_t checked = 0;
  std::size_t violations = 0;
};
GroupWire group_wire(const ClipRunResult& c) {
  GroupWire g;
  const auto& packets = c.flow.packets();
  for (std::size_t i = 0; i + 1 < packets.size(); ++i) {
    if (packets[i + 1].first_of_group) continue;
    ++g.checked;
    g.violations += packets[i].wire_length != 1514u;
  }
  return g;
}

double size_mode(const char* id, const StudyResults& s) {
  Histogram h(50.0);
  h.add_all(clip(s, id).flow.packet_sizes());
  return h.mode().probability;
}

// Figure 12: the network layer receives a group every ~100 ms; the
// application layer releases batches once per second.
double median_group_gap_s(const ClipRunResult& c) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < c.app_packets.size(); ++i) {
    const double gap =
        (c.app_packets[i].network_time - c.app_packets[i - 1].network_time).to_seconds();
    if (gap > 1e-6) gaps.push_back(gap);
  }
  return median(gaps);
}
std::map<std::int64_t, int> app_batches(const ClipRunResult& c) {
  std::map<std::int64_t, int> batches;
  for (const auto& ev : c.app_packets) ++batches[ev.app_time.ns()];
  return batches;
}
double median_batch_size(const ClipRunResult& c) {
  std::vector<double> sizes;
  for (const auto& [when, count] : app_batches(c)) sizes.push_back(count);
  return median(sizes);
}
double median_batch_interval_s(const ClipRunResult& c) {
  std::vector<double> intervals;
  const auto batches = app_batches(c);
  for (auto it = batches.begin(); it != batches.end() && std::next(it) != batches.end(); ++it)
    intervals.push_back(static_cast<double>(std::next(it)->first - it->first) * 1e-9);
  return median(intervals);
}

double low_tier_mean_fps(const std::vector<figures::FrameRatePoint>& points, PlayerKind p) {
  for (const auto& t : figures::summarize_by_tier(points, p))
    if (t.tier == RateTier::kLow) return t.mean_fps;
  return kNaN;
}

// Bounds several rows share: the set-5 rows of Figures 12-13 restate the
// set-1 claims, and Figure 15 restates Figure 14's low-rate margin.
const ClaimBound kGroupCadence = within(0.08, 0.12);
const ClaimBound kAppBatch = within(9.0, 11.0);
const ClaimBound kFullMotionFps = above(22.0);
const ClaimBound kLowMediaFps = between(11.0, 17.0);
const ClaimBound kLowRateFpsLead = above(2.0);

std::vector<PaperClaim> build_claims() {
  using S = const StudyResults&;
  return {
      // ---- Table 1 ----------------------------------------------------------
      {"table1.clips", "table1", "6 sets, 26 clips",
       "clips the study ran",
       [](S s) { return static_cast<double>(s.clips().size()); }, within(26, 26)},
      {"table1.r_encoded_below_m", "table1",
       "R always encoded below M at the same tier",
       "min over the 13 pairs of M − R encoded rate (Kbps)",
       [](S s) {
         return min_of(s.runs, [](const PairRunResult& r) {
           return r.media.clip.encoded_rate.to_kbps() - r.real.clip.encoded_rate.to_kbps();
         });
       },
       above(0.0)},

      // ---- Figure 1: RTT, loss ---------------------------------------------
      {"fig01.rtt_min", "fig01", "median RTT ≈ 40 ms, max ≈ 160 ms",
       "min ping RTT (ms)",
       [](S s) { return min_of(figures::rtt_samples_ms(s), std::identity{}); }, above(10.0)},
      {"fig01.rtt_max", "fig01", "median RTT ≈ 40 ms, max ≈ 160 ms",
       "max ping RTT (ms)",
       [](S s) { return max_of(figures::rtt_samples_ms(s), std::identity{}); },
       between(100.0, 180.0)},
      {"fig01.loss_max", "fig01", "average loss rate near 0%",
       "max ping loss fraction over the 13 runs",
       [](S s) {
         return max_of(s.runs, [](const PairRunResult& r) { return r.ping.loss_fraction(); });
       },
       below(0.05)},

      // ---- Figure 2: hop counts --------------------------------------------
      {"fig02.hops_min", "fig02", "most servers 15–20 hops away, range ~10–25",
       "min hop count (NaN if a route failed)",
       [](S s) { return min_of(s.runs, hops); }, at_least(10.0)},
      {"fig02.hops_max", "fig02", "most servers 15–20 hops away, range ~10–25",
       "max hop count (NaN if a route failed)",
       [](S s) { return max_of(s.runs, hops); }, at_most(26.0)},

      // ---- Figure 3: playback vs encoding rate -----------------------------
      {"fig03.m_at_encoding", "fig03", "MediaPlayer plays at its encoding rate (y ≈ x)",
       "max over M clips of abs(playback − encoding) / encoding",
       [](S s) {
         return max_of(s.clips_for(PlayerKind::kMediaPlayer), [](const ClipRunResult* c) {
           const double enc = c->clip.encoded_rate.to_kbps();
           return std::abs(c->tracker.average_playback_bandwidth.to_kbps() - enc) / enc;
         });
       },
       at_most(0.08)},
      {"fig03.r_above_encoding", "fig03", "RealPlayer plays above its encoding rate",
       "min playback − encoding over R clips (Kbps)",
       [](S s) {
         return min_of(s.clips_for(PlayerKind::kRealPlayer), [](const ClipRunResult* c) {
           return c->tracker.average_playback_bandwidth.to_kbps() -
                  c->clip.encoded_rate.to_kbps();
         });
       },
       above(0.0)},

      // ---- Figure 4: arrival pattern ---------------------------------------
      {"fig04.m_group_packets", "fig04",
       "MediaPlayer: groups of packets, all but the last 1514 B",
       "set1/M-h non-tail group packets checked",
       [](S s) { return static_cast<double>(group_wire(clip(s, "set1/M-h")).checked); },
       above(1000.0)},
      {"fig04.m_non1514_over_allowance", "fig04",
       "MediaPlayer: groups of packets, all but the last 1514 B",
       "set1/M-h non-tail packets ≠ 1514 B, minus a ⌊checked/200⌋ allowance for lost tails",
       [](S s) {
         const auto g = group_wire(clip(s, "set1/M-h"));
         return static_cast<double>(g.violations) - static_cast<double>(g.checked / 200);
       },
       at_most(0.0)},
      {"fig04.r_back_to_back", "fig04", "RealPlayer: packets spread evenly",
       "set5/R-h share of interarrivals under 10% of the mean",
       [](S s) {
         const auto gaps = clip(s, "set5/R-h").flow.interarrivals();
         if (gaps.empty()) return kNaN;
         const double mean = SummaryStats::from(gaps).mean;
         return share(gaps, [&](double g) { return g < 0.1 * mean; });
       },
       below(0.2)},

      // ---- Figure 5: IP fragmentation --------------------------------------
      {"fig05.below_100k", "fig05", "0% fragments below 100 Kbps",
       "max fragment fraction over clips < 100 Kbps",
       [](S s) {
         std::vector<const ClipRunResult*> low;
         for (const auto* c : s.clips())
           if (c->clip.encoded_rate.to_kbps() < 100.0) low.push_back(c);
         return max_of(low, [](const ClipRunResult* c) { return c->flow.fragment_fraction(); });
       },
       at_most(0.0)},
      {"fig05.m_300k", "fig05", "~66% fragments at 300 Kbps",
       "set1/M-h (323.1 Kbps) fragment fraction",
       [](S s) { return clip(s, "set1/M-h").flow.fragment_fraction(); }, within(0.63, 0.69)},
      {"fig05.m_very_high", "fig05", "up to ~80% at the highest rate",
       "set6/M-v (731.3 Kbps) fragment fraction",
       [](S s) { return clip(s, "set6/M-v").flow.fragment_fraction(); }, above(0.78)},
      {"fig05.r_none", "fig05", "no RealPlayer fragments ever",
       "max fragment count over R clips",
       [](S s) {
         return max_of(s.clips_for(PlayerKind::kRealPlayer), [](const ClipRunResult* c) {
           return static_cast<double>(c->flow.fragment_count());
         });
       },
       at_most(0.0)},

      // ---- Figure 6: packet sizes, set 1 low --------------------------------
      {"fig06.m_800_1000", "fig06", ">80% of MediaPlayer packets in 800–1000 B",
       "set1/M-l share of packets in [800, 1000) B",
       [](S s) {
         Histogram h(50.0);
         h.add_all(clip(s, "set1/M-l").flow.packet_sizes());
         return h.mass_in(800.0, 1000.0);
       },
       above(0.8)},
      {"fig06.r_no_peak", "fig06", "RealPlayer spread over a wide range, no single peak",
       "set1/R-l tallest 50 B bin",
       [](S s) { return size_mode("set1/R-l", s); }, below(0.35)},
      {"fig06.m_peak_over_r", "fig06", "RealPlayer spread over a wide range, no single peak",
       "set1/M-l tallest bin / set1/R-l tallest bin",
       [](S s) { return size_mode("set1/M-l", s) / size_mode("set1/R-l", s); }, above(2.0)},

      // ---- Figure 7: normalised sizes ---------------------------------------
      {"fig07.r_spread", "fig07", "RealPlayer spread ≈ 0.6–1.8 of the mean",
       "R p98 − p02 of size/mean",
       [](S s) {
         const auto r = figures::normalized_packet_sizes(s, PlayerKind::kRealPlayer);
         return r.empty() ? kNaN : quantile(r, 0.98) - quantile(r, 0.02);
       },
       above(0.7)},
      {"fig07.r_p01", "fig07", "RealPlayer spread ≈ 0.6–1.8 of the mean",
       "R p01 of size/mean",
       [](S s) {
         const auto r = figures::normalized_packet_sizes(s, PlayerKind::kRealPlayer);
         return r.empty() ? kNaN : quantile(r, 0.01);
       },
       below(0.75)},
      {"fig07.r_p99", "fig07", "RealPlayer spread ≈ 0.6–1.8 of the mean",
       "R p99 of size/mean",
       [](S s) {
         const auto r = figures::normalized_packet_sizes(s, PlayerKind::kRealPlayer);
         return r.empty() ? kNaN : quantile(r, 0.99);
       },
       above(1.5)},

      // ---- Figure 8: interarrivals, set 1 low -------------------------------
      {"fig08.m_interval", "fig08", "MediaPlayer ≈ constant interval (~0.14 s at this rate)",
       "set1/M-l median interarrival (s)",
       [](S s) { return median(figures::clip_interarrivals(clip(s, "set1/M-l"))); },
       within(0.12, 0.16)},
      {"fig08.m_peak_bin", "fig08", "MediaPlayer ≈ constant interval (~0.14 s at this rate)",
       "set1/M-l share of interarrivals in the tallest 10 ms bin",
       [](S s) {
         Histogram h(0.01);
         h.add_all(figures::clip_interarrivals(clip(s, "set1/M-l")));
         return h.total() == 0 ? kNaN : h.mode().probability;
       },
       above(0.9)},
      {"fig08.r_spread", "fig08", "RealPlayer spread over 0–0.2 s",
       "set1/R-l p95 − p05 interarrival (s)",
       [](S s) {
         const auto gaps = figures::clip_interarrivals(clip(s, "set1/R-l"));
         return gaps.empty() ? kNaN : quantile(gaps, 0.95) - quantile(gaps, 0.05);
       },
       above(0.1)},
      {"fig08.r_p95", "fig08", "RealPlayer spread over 0–0.2 s",
       "set1/R-l p95 interarrival (s)",
       [](S s) {
         const auto gaps = figures::clip_interarrivals(clip(s, "set1/R-l"));
         return gaps.empty() ? kNaN : quantile(gaps, 0.95);
       },
       at_most(0.2)},

      // ---- Figure 9: normalised interarrivals -------------------------------
      {"fig09.m_samples", "fig09", "MediaPlayer CDF steep at 1.0 (groups collapsed)",
       "M group-leading interarrivals pooled",
       [](S s) {
         return static_cast<double>(
             figures::normalized_interarrivals(s, PlayerKind::kMediaPlayer).size());
       },
       above(500.0)},
      {"fig09.m_near_one", "fig09", "MediaPlayer CDF steep at 1.0 (groups collapsed)",
       "M share of gap/mean in (0.85, 1.15)",
       [](S s) {
         return share(figures::normalized_interarrivals(s, PlayerKind::kMediaPlayer),
                      [](double v) { return v > 0.85 && v < 1.15; });
       },
       above(0.9)},
      {"fig09.r_samples", "fig09", "RealPlayer CDF gradual over the whole range",
       "R interarrivals pooled",
       [](S s) {
         return static_cast<double>(
             figures::normalized_interarrivals(s, PlayerKind::kRealPlayer).size());
       },
       above(500.0)},
      {"fig09.r_below", "fig09", "RealPlayer CDF gradual over the whole range",
       "R share of gap/mean < 0.7",
       [](S s) {
         return share(figures::normalized_interarrivals(s, PlayerKind::kRealPlayer),
                      [](double v) { return v < 0.7; });
       },
       above(0.10)},
      {"fig09.r_above", "fig09", "RealPlayer CDF gradual over the whole range",
       "R share of gap/mean > 1.3",
       [](S s) {
         return share(figures::normalized_interarrivals(s, PlayerKind::kRealPlayer),
                      [](double v) { return v > 1.3; });
       },
       above(0.10)},

      // ---- Figure 10: bandwidth vs time -------------------------------------
      {"fig10.m_no_burst", "fig10", "MediaPlayer flat for the whole clip",
       "M clips with a startup burst",
       [](S s) {
         const auto m = s.clips_for(PlayerKind::kMediaPlayer);
         return static_cast<double>(std::count_if(m.begin(), m.end(), [](const auto* c) {
           return c->buffering.has_buffering_phase;
         }));
       },
       at_most(0.0)},
      {"fig10.r_burst_low", "fig10", "RealPlayer bursts for 20 s (low rate) to 40 s (high rate)",
       "set1/R-l burst length (s; NaN without a burst)",
       [](S s) {
         const auto& b = clip(s, "set1/R-l").buffering;
         return b.has_buffering_phase ? b.buffering_duration.to_seconds() : kNaN;
       },
       within(14.0, 26.0)},
      {"fig10.r_burst_high", "fig10",
       "RealPlayer bursts for 20 s (low rate) to 40 s (high rate)",
       "set1/R-h burst length (s; NaN without a burst)",
       [](S s) {
         const auto& b = clip(s, "set1/R-h").buffering;
         return b.has_buffering_phase ? b.buffering_duration.to_seconds() : kNaN;
       },
       within(32.0, 48.0)},
      {"fig10.r_shorter_sets16", "fig10", "RealPlayer's streaming duration is shorter",
       "min M − R streaming duration, sets 1 and 6, low and high tiers (s)",
       [](S s) {
         const auto runs = runs_where(s, [](const PairRunResult& r) {
           return (r.real.clip.data_set == 1 || r.real.clip.data_set == 6) &&
                  r.real.clip.tier != RateTier::kVeryHigh;
         });
         return min_of(runs, [](const PairRunResult* r) { return streaming_gap_s(*r); });
       },
       above(5.0)},
      {"fig10.r_shorter_very_high", "fig10", "RealPlayer's streaming duration is shorter",
       "set6 very-high M − R streaming duration (s)",
       [](S s) {
         return clip(s, "set6/M-v").server_streaming_duration.to_seconds() -
                clip(s, "set6/R-v").server_streaming_duration.to_seconds();
       },
       above(0.0)},
      {"fig10.r_shorter_all", "fig10", "RealPlayer's streaming duration is shorter",
       "min M − R streaming duration over the 13 pairs (s)",
       [](S s) { return min_of(s.runs, streaming_gap_s); }, above(0.0)},

      // ---- Figure 11: buffering ratio ---------------------------------------
      {"fig11.r_low", "fig11", "ratio ≈ 3 for ≤ 56 Kbps clips",
       "set1/R-l (36 Kbps) buffering/playout ratio (NaN without a burst)",
       [](S s) {
         const auto& b = clip(s, "set1/R-l").buffering;
         return b.has_buffering_phase ? b.ratio() : kNaN;
       },
       within(2.6, 3.4)},
      {"fig11.r_very_high", "fig11", "ratio ≈ 1 at 637 Kbps",
       "set6/R-v (636.9 Kbps) buffering/playout ratio",
       [](S s) { return clip(s, "set6/R-v").buffering.ratio(); }, below(1.4)},
      {"fig11.r_decays", "fig11", "ratio decays with the encoding rate",
       "ratio of the lowest-rate R clip − ratio of the highest",
       [](S s) {
         const auto points = figures::buffering_ratio_vs_rate(s);
         return points.size() < 3 ? kNaN : points.front().ratio - points.back().ratio;
       },
       above(0.5)},
      {"fig11.m_exactly_one", "fig11", "MediaPlayer ratio exactly 1",
       "max over M clips of abs(ratio − 1)",
       [](S s) {
         return max_of(s.clips_for(PlayerKind::kMediaPlayer), [](const ClipRunResult* c) {
           return std::abs(c->buffering.ratio() - 1.0);
         });
       },
       at_most(0.0)},

      // ---- Figure 12: network vs application layer --------------------------
      {"fig12.set1_app_packets", "fig12",
       "OS receives a packet group every 100 ms; the application ~10-packet batches once "
       "per second",
       "set1/M-h application-layer packets",
       [](S s) { return static_cast<double>(clip(s, "set1/M-h").app_packets.size()); },
       above(100.0)},
      {"fig12.set1_group_gap", "fig12", "OS receives a packet group every 100 ms",
       "set1/M-h median network-layer gap between groups (s)",
       [](S s) { return median_group_gap_s(clip(s, "set1/M-h")); }, kGroupCadence},
      {"fig12.set1_batch", "fig12", "the application receives ~10-packet batches",
       "set1/M-h median application batch (packets)",
       [](S s) { return median_batch_size(clip(s, "set1/M-h")); }, kAppBatch},
      {"fig12.set5_group_gap", "fig12", "OS receives a packet group every 100 ms",
       "set5/M-h median network-layer gap between groups (s)",
       [](S s) { return median_group_gap_s(clip(s, "set5/M-h")); }, kGroupCadence},
      {"fig12.set5_batch", "fig12", "the application receives ~10-packet batches",
       "set5/M-h median application batch (packets)",
       [](S s) { return median_batch_size(clip(s, "set5/M-h")); }, kAppBatch},
      {"fig12.set5_batch_interval", "fig12", "application batches arrive once per second",
       "set5/M-h median interval between application batches (s)",
       [](S s) { return median_batch_interval_s(clip(s, "set5/M-h")); }, within(0.9, 1.1)},

      // ---- Figure 13: frame rate vs time ------------------------------------
      {"fig13.set1_r_high", "fig13", "both high clips reach 25 fps",
       "set1/R-h (284.0 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set1/R-h")); }, kFullMotionFps},
      {"fig13.set1_m_high", "fig13", "both high clips reach 25 fps",
       "set1/M-h (323.1 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set1/M-h")); }, kFullMotionFps},
      {"fig13.set1_m_low", "fig13", "lowest: the low MediaPlayer clip at 13 fps",
       "set1/M-l (49.8 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set1/M-l")); }, kLowMediaFps},
      {"fig13.set5_r_high", "fig13", "both high clips reach 25 fps",
       "set5/R-h (217.6 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set5/R-h")); }, kFullMotionFps},
      {"fig13.set5_m_high", "fig13", "both high clips reach 25 fps",
       "set5/M-h (250.4 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set5/M-h")); }, kFullMotionFps},
      {"fig13.set5_m_low", "fig13", "lowest: M-39K at 13 fps",
       "set5/M-l (39 Kbps) frame rate (fps)",
       [](S s) { return fps(clip(s, "set5/M-l")); }, kLowMediaFps},
      {"fig13.set5_r_over_m_low", "fig13", "R-22K significantly higher than M-39K",
       "set5 R-l − M-l frame rate (fps)",
       [](S s) { return fps(clip(s, "set5/R-l")) - fps(clip(s, "set5/M-l")); },
       kLowRateFpsLead},

      // ---- Figure 14: frame rate vs encoding rate ---------------------------
      {"fig14.r_leads_low", "fig14", "R > M at low rates",
       "min R − M frame rate over low-tier pairs (fps)",
       [](S s) {
         const auto low = runs_where(
             s, [](const PairRunResult& r) { return r.real.clip.tier == RateTier::kLow; });
         return min_of(low, [](const PairRunResult* r) { return fps(r->real) - fps(r->media); });
       },
       kLowRateFpsLead},
      {"fig14.similar_high", "fig14", "similar at high / very-high rates",
       "max abs(R − M) frame rate over high and very-high pairs (fps)",
       [](S s) {
         const auto high = runs_where(
             s, [](const PairRunResult& r) { return r.real.clip.tier != RateTier::kLow; });
         return max_of(high, [](const PairRunResult* r) {
           return std::abs(fps(r->real) - fps(r->media));
         });
       },
       at_most(5.0)},
      {"fig14.quality", "fig14", "typical, uncongested paths: frames arrive",
       "min reception quality over the 26 clips (%)",
       [](S s) {
         return min_of(s.clips(),
                       [](const ClipRunResult* c) { return c->tracker.reception_quality(); });
       },
       above(97.0)},

      // ---- Figure 15: frame rate vs playout bandwidth -----------------------
      {"fig15.r_leads_low", "fig15",
       "RealPlayer above MediaPlayer for the same bandwidth at low rates",
       "R − M low-tier mean frame rate over the Figure 15 points (fps)",
       [](S s) {
         const auto points = figures::framerate_vs_bandwidth(s);
         return low_tier_mean_fps(points, PlayerKind::kRealPlayer) -
                low_tier_mean_fps(points, PlayerKind::kMediaPlayer);
       },
       kLowRateFpsLead},
  };
}

}  // namespace

const std::vector<PaperClaim>& paper_claims() {
  static const std::vector<PaperClaim> claims = build_claims();
  return claims;
}

}  // namespace streamlab
