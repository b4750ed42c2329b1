// reproduce: regenerates the paper's results from one study run — Table 1,
// Figures 1-15, the Section IV synthetic flows and the four Section VI
// extensions. kOutputs declares each output once: its id, the header it
// prints, the data sets it reads and its render function. Every output
// prints the rows/series the paper's table or figure reports, plus an ASCII
// sketch of the plot; `claims` prints the verdict tables EXPERIMENTS.md
// embeds. The command line is in reproduce_main.cpp; this file is the
// streamlab_reproduce library, which the paper test suite also links.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "reproduce.hpp"

#include "analysis/stats.hpp"
#include "congestion/experiment.hpp"
#include "congestion/friendliness.hpp"
#include "core/aggregate.hpp"
#include "core/claims.hpp"
#include "core/figures.hpp"
#include "core/jobs.hpp"
#include "core/render.hpp"
#include "core/study.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/ns_trace.hpp"
#include "util/strings.hpp"

namespace streamlab::reproduce {
namespace {

/// A clip the output's data sets include. A missing one means the registry
/// row under-declares its sets, so it is an error, not an empty figure.
const ClipRunResult& run_of(const StudyResults& study, std::string_view id) {
  if (const auto* run = study.find(id)) return *run;
  throw std::runtime_error("no study result for clip " + std::string(id));
}

// Table 1: the experiment data sets — six clip sets, 26 clips, with the
// encoded data rate re-measured by the trackers (the paper notes the table's
// rates come "captured by our customized video players", not from the Web
// page labels).
void table1(const StudyResults& study) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kVeryHigh, RateTier::kHigh, RateTier::kLow}) {
      const auto pair = set.pair(tier);
      if (!pair) continue;
      const auto& real = run_of(study, pair->first.id());
      const auto& media = run_of(study, pair->second.id());
      rows.push_back({
          std::to_string(set.id),
          tier_label(PlayerKind::kRealPlayer, tier) + "/" +
              tier_label(PlayerKind::kMediaPlayer, tier),
          fmt_double(pair->first.encoded_rate.to_kbps(), 1) + "/" +
              fmt_double(pair->second.encoded_rate.to_kbps(), 1),
          to_string(set.content),
          fmt_double(set.length.to_seconds(), 0) + "s",
          fmt_double(real.tracker.average_playback_bandwidth.to_kbps(), 1),
          fmt_double(media.tracker.average_playback_bandwidth.to_kbps(), 1),
      });
    }
  }
  std::printf("%s\n",
              render::table({"Set", "Pair", "Encode (Kbps)", "Content", "Length",
                             "R playback Kbps", "M playback Kbps"},
                            rows)
                  .c_str());

  std::printf("Clips in catalog: %zu (paper: 26)\n", all_clips().size());
}

// Figure 1: CDF of round-trip time across the experiment connections.
// Paper shape: median ~40 ms, maximum ~160 ms.
void fig01(const StudyResults& study) {
  const auto rtts = figures::rtt_samples_ms(study);

  std::printf("%s\n", render::cdf_listing(rtts, "RTT (ms)", 11).c_str());

  const auto s = SummaryStats::from(rtts);
  std::printf("samples=%zu  median=%.1f ms  mean=%.1f ms  max=%.1f ms\n", s.n, s.median,
              s.mean, s.max);
  std::printf("paper:   median~40 ms                 max~160 ms\n\n");

  render::Series series{"RTT CDF", '*', {}};
  for (const auto& p : empirical_cdf(rtts)) series.points.emplace_back(p.x, p.p);
  std::printf("%s", render::xy_plot({series}, 72, 16).c_str());
}

// Figure 2: CDF of hop counts to the servers.
// Paper shape: most servers 15-20 hops away, full range 10-25.
void fig02(const StudyResults& study) {
  const auto hops = figures::hop_counts(study);

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < study.runs.size(); ++i) {
    const auto& run = study.runs[i];
    rows.push_back({run.real.clip.id() + "+" + run.media.clip.id(),
                    std::to_string(run.route.hop_count()),
                    fmt_double(run.ping.avg_rtt().to_millis(), 1)});
  }
  std::printf("%s\n", render::table({"Run", "Hops", "Avg RTT (ms)"}, rows).c_str());

  std::printf("%s\n", render::cdf_listing(hops, "hops", 6).c_str());
  const auto s = SummaryStats::from(hops);
  std::printf("min=%.0f  median=%.0f  max=%.0f  (paper: 10..25, mostly 15-20)\n", s.min,
              s.median, s.max);
}

// Figure 3: average playback data rate vs encoding data rate, with
// second-order polynomial trends per player.
// Paper shape: MediaPlayer tracks y=x; RealPlayer sits above y=x.
void fig03(const StudyResults& study) {
  const auto points = figures::playback_vs_encoding(study);

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    rows.push_back({p.player == PlayerKind::kRealPlayer ? "Real" : "Media",
                    fmt_double(p.encoding_kbps, 1), fmt_double(p.playback_kbps, 1),
                    fmt_double(p.playback_kbps / p.encoding_kbps, 3)});
  }
  std::printf("%s\n",
              render::table({"Player", "Encoding Kbps", "Playback Kbps", "ratio"}, rows)
                  .c_str());

  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto fit = figures::playback_trend(study, player);
    std::printf("%s 2nd-order trend: y = %.3g + %.4g x + %.3g x^2   (R^2=%.4f)\n",
                to_string(player).c_str(), fit.coefficients[0], fit.coefficients[1],
                fit.coefficients[2], fit.r_squared);
    std::printf("  trend at 100/300/600 Kbps: %.1f / %.1f / %.1f  (y=x would be "
                "100/300/600)\n",
                fit.eval(100), fit.eval(300), fit.eval(600));
  }

  render::Series real{"RealPlayer", 'R', {}}, media{"MediaPlayer", 'M', {}};
  for (const auto& p : points)
    (p.player == PlayerKind::kRealPlayer ? real : media)
        .points.emplace_back(p.encoding_kbps, p.playback_kbps);
  std::printf("\n%s", render::xy_plot({real, media}, 72, 18).c_str());
}

// Figure 4: packet arrivals vs time over a one-second window for a high
// encoding-rate pair (the paper uses a 217 Kbps RealPlayer clip and a
// 250 Kbps MediaPlayer clip = data set 5 high tier).
// Paper shape: MediaPlayer arrives in regular groups (one UDP packet + a
// constant number of IP fragments); RealPlayer arrives evenly.
void fig04(const StudyResults& study) {
  const auto& real = run_of(study, "set5/R-h");
  const auto& media = run_of(study, "set5/M-h");

  // The paper plots t in [30.0, 31.0] seconds of the flow.
  const auto real_win = figures::arrival_window(real, Duration::seconds(30),
                                                Duration::seconds(1));
  const auto media_win = figures::arrival_window(media, Duration::seconds(30),
                                                 Duration::seconds(1));

  std::printf("RealPlayer (217.6 Kbps): %zu packets in the window\n", real_win.size());
  std::printf("MediaPlayer (250.4 Kbps): %zu packets in the window\n\n",
              media_win.size());

  std::vector<std::vector<std::string>> rows;
  const std::size_t n = std::max(real_win.size(), media_win.size());
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(
        {i < real_win.size() ? fmt_double(real_win[i].first, 4) : "",
         i < real_win.size() ? std::to_string(real_win[i].second) : "",
         i < media_win.size() ? fmt_double(media_win[i].first, 4) : "",
         i < media_win.size() ? std::to_string(media_win[i].second) : ""});
  }
  std::printf("%s\n", render::table({"R time(s)", "R seq", "M time(s)", "M seq"}, rows)
                          .c_str());

  render::Series rs{"RealPlayer", 'R', {}}, ms{"MediaPlayer", 'M', {}};
  for (const auto& [t, idx] : real_win) rs.points.emplace_back(t, idx);
  for (const auto& [t, idx] : media_win) ms.points.emplace_back(t, idx);
  std::printf("%s", render::xy_plot({rs, ms}, 72, 18).c_str());

  // The MediaPlayer group structure the paper highlights.
  std::size_t groups = 0, fragments = 0;
  const auto& packets = media.flow.packets();
  for (const auto& p : packets) {
    groups += p.first_of_group;
    fragments += p.trailing_fragment;
  }
  std::printf("\nMediaPlayer flow: %zu groups, %.1f packets/group, all group packets "
              "except the tail are 1514 bytes on the wire\n",
              groups,
              static_cast<double>(packets.size()) / static_cast<double>(groups));
}

// Figure 5: MediaPlayer IP fragmentation percentage vs encoded data rate.
// Paper shape: 0% below 100 Kbps, ~66% at 300 Kbps, up to ~80%+ at the
// very-high clip; RealPlayer always 0%.
void fig05(const StudyResults& study) {
  auto points = figures::fragmentation_vs_rate(study);
  std::sort(points.begin(), points.end(),
            [](const auto& a, const auto& b) { return a.encoded_kbps < b.encoded_kbps; });

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    rows.push_back({p.player == PlayerKind::kRealPlayer ? "Real" : "Media",
                    fmt_double(p.encoded_kbps, 1), fmt_double(p.fragment_percent, 1),
                    ascii_bar(p.fragment_percent / 100.0, 30)});
  }
  std::printf("%s\n",
              render::table({"Player", "Encoded Kbps", "Fragments %", ""}, rows).c_str());

  double real_max = 0.0;
  render::Series series{"MediaPlayer frag %", 'M', {}};
  for (const auto& p : points) {
    if (p.player == PlayerKind::kMediaPlayer)
      series.points.emplace_back(p.encoded_kbps, p.fragment_percent);
    else
      real_max = std::max(real_max, p.fragment_percent);
  }
  std::printf("%s", render::xy_plot({series}, 72, 16).c_str());
  std::printf("\nRealPlayer maximum fragmentation across all clips: %.2f%% (paper: "
              "none observed)\n",
              real_max);
}

// Figure 6: PDF of packet size for a single experiment (data set 1, low
// bandwidth: 36 Kbps RealPlayer vs 49.8 Kbps MediaPlayer).
// Paper shape: >80% of MediaPlayer packets between 800-1000 bytes;
// RealPlayer sizes spread over a wide range with no single peak.
void fig06(const StudyResults& study) {
  const auto& real = run_of(study, "set1/R-l");
  const auto& media = run_of(study, "set1/M-l");

  std::printf("--- RealPlayer (36 Kbps), %zu packets ---\n", real.flow.size());
  const auto real_pdf = figures::packet_size_pdf(real, 50.0);
  std::printf("%s\n", render::pdf_listing(real_pdf, "size (B)").c_str());

  std::printf("--- MediaPlayer (49.8 Kbps), %zu packets ---\n", media.flow.size());
  const auto media_pdf = figures::packet_size_pdf(media, 50.0);
  std::printf("%s\n", render::pdf_listing(media_pdf, "size (B)").c_str());

  std::printf("MediaPlayer mass in [800,1000) B: %.1f%%  (paper: >80%%)\n",
              100.0 * media_pdf.mass_in(800, 1000));
  std::printf("RealPlayer tallest bin:          %.1f%%  (no dominant peak)\n",
              100.0 * real_pdf.mode().probability);
}

// Figure 7: PDF of normalised packet size pooled over all data sets
// (each clip's sizes divided by that clip's mean).
// Paper shape: MediaPlayer concentrated at 1.0; RealPlayer spread 0.6-1.8.
void fig07(const StudyResults& study) {
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto sizes = figures::normalized_packet_sizes(study, player);
    Histogram h(0.1);
    h.add_all(sizes);
    std::printf("--- %s (%zu packets) ---\n", to_string(player).c_str(), sizes.size());
    std::printf("%s\n", render::pdf_listing(h, "size/mean").c_str());
    std::printf("p01=%.2f  p50=%.2f  p99=%.2f  mass in [0.9,1.1)=%.1f%%\n\n",
                quantile(sizes, 0.01), quantile(sizes, 0.5), quantile(sizes, 0.99),
                100.0 * h.mass_in(0.9, 1.1));
  }
  std::printf("paper: MediaPlayer piles at 1.0; RealPlayer covers ~0.6 to ~1.8\n");
}

// Figure 8: PDF of packet interarrival times for the data set 1 low pair.
// Paper shape: MediaPlayer has a near-constant interval (density spike);
// RealPlayer interarrivals spread over a much wider range.
void fig08(const StudyResults& study) {
  const auto& real = run_of(study, "set1/R-l");
  const auto& media = run_of(study, "set1/M-l");

  const auto real_gaps = figures::clip_interarrivals(real);
  const auto media_gaps = figures::clip_interarrivals(media);

  const auto print_player = [](const char* name, const std::vector<double>& gaps) {
    Histogram h(0.01);  // 10 ms bins, matching the figure's axis
    h.add_all(gaps);
    std::printf("--- %s (%zu interarrivals) ---\n", name, gaps.size());
    std::printf("%s", render::pdf_listing(h, "gap (s)").c_str());
    std::printf("p05=%.3fs  p50=%.3fs  p95=%.3fs  peak-bin mass=%.1f%%\n\n",
                quantile(gaps, 0.05), quantile(gaps, 0.5), quantile(gaps, 0.95),
                100.0 * h.mode().probability);
  };
  print_player("RealPlayer (36 Kbps)", real_gaps);
  print_player("MediaPlayer (49.8 Kbps)", media_gaps);

  std::printf("paper: MediaPlayer interval ~constant (~0.14 s for this clip);\n");
  std::printf("       RealPlayer gaps spread across 0..0.2 s\n");
}

// Figure 9: CDF of normalised packet interarrival times over all data sets.
// For MediaPlayer only the first packet of each fragment group counts
// (the paper's de-noising).
// Paper shape: MediaPlayer CDF is a step at 1.0; RealPlayer rises gradually.
void fig09(const StudyResults& study) {
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const auto gaps = figures::normalized_interarrivals(study, player);
    std::printf("--- %s (%zu samples) ---\n", to_string(player).c_str(), gaps.size());
    std::printf("%s\n", render::cdf_listing(gaps, "gap/mean", 11).c_str());

    std::size_t near_one = 0;
    for (const double g : gaps) near_one += (g > 0.9 && g < 1.1);
    std::printf("fraction within 10%% of the mean: %.1f%%\n\n",
                100.0 * static_cast<double>(near_one) / static_cast<double>(gaps.size()));
  }

  render::Series rs{"RealPlayer", 'R', {}}, ms{"MediaPlayer", 'M', {}};
  for (const auto& p :
       cdf_at_quantiles(figures::normalized_interarrivals(study, PlayerKind::kRealPlayer), 40))
    rs.points.emplace_back(std::min(p.x, 3.0), p.p);
  for (const auto& p : cdf_at_quantiles(
           figures::normalized_interarrivals(study, PlayerKind::kMediaPlayer), 40))
    ms.points.emplace_back(std::min(p.x, 3.0), p.p);
  std::printf("%s", render::xy_plot({rs, ms}, 72, 16).c_str());
}

// Figure 10: bandwidth vs time for data set 1 (all four clips).
// Paper shape: RealPlayer opens with a burst above the playout rate until
// its delay buffer fills, then settles; its streaming ends earlier.
// MediaPlayer holds one constant rate for the whole clip.
void fig10(const StudyResults& study) {
  const Duration window = Duration::seconds(5);

  const std::vector<std::pair<std::string, char>> clips = {
      {"set1/R-h", 'A'}, {"set1/R-l", 'B'}, {"set1/M-h", 'C'}, {"set1/M-l", 'D'}};

  std::vector<render::Series> series;
  for (const auto& [id, glyph] : clips) {
    const auto& run = run_of(study, id);
    const auto timeline = figures::bandwidth_timeline(run, window);
    std::printf("--- %s (%s) ---\n", id.c_str(),
                to_string(run.clip.encoded_rate).c_str());
    std::printf("  t(s)    Kbps\n");
    for (std::size_t i = 0; i < timeline.size(); i += 4) {
      std::printf("  %-7.0f %-8.1f %s\n", timeline[i].first, timeline[i].second,
                  ascii_bar(timeline[i].second / 700.0, 35).c_str());
    }
    std::printf("  buffering ratio=%.2f  burst=%.0fs  streaming duration=%.1fs\n\n",
                run.buffering.ratio(), run.buffering.buffering_duration.to_seconds(),
                run.server_streaming_duration.to_seconds());

    render::Series s{id, glyph, {}};
    for (const auto& [t, kbps] : timeline) s.points.emplace_back(t, kbps);
    series.push_back(std::move(s));
  }

  std::printf("%s", render::xy_plot(series, 76, 20).c_str());
  std::printf("\npaper: R-284K bursts to ~430K then ~300K; R-36K bursts ~3x then "
              "~40K;\n       M-323K and M-49.8K flat for the full clip; R streams end "
              "sooner\n");
}

// Figure 11: buffering rate / playing rate vs encoding rate for all
// RealPlayer clips.
// Paper shape: ratio ~3 for clips under 56 Kbps, decaying to ~1 at the
// 637 Kbps clip; MediaPlayer's ratio is 1 by construction.
void fig11(const StudyResults& study) {
  const auto points = figures::buffering_ratio_vs_rate(study);

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    rows.push_back({fmt_double(p.encoding_kbps, 1), fmt_double(p.ratio, 2),
                    ascii_bar(p.ratio / 3.5, 30)});
  }
  std::printf("%s\n",
              render::table({"Encoding Kbps", "Buffer/Play ratio", ""}, rows).c_str());

  render::Series series{"RealPlayer ratio", 'R', {}};
  for (const auto& p : points) series.points.emplace_back(p.encoding_kbps, p.ratio);
  std::printf("%s", render::xy_plot({series}, 72, 14).c_str());

  // MediaPlayer for contrast.
  double media_max = 1.0;
  for (const auto* c : study.clips_for(PlayerKind::kMediaPlayer))
    media_max = std::max(media_max, c->buffering.ratio());
  std::printf("\nMediaPlayer max ratio across all clips: %.2f (paper: exactly 1)\n",
              media_max);
}

// Figure 12: packets received by the network layer vs the application layer
// for one MediaPlayer clip, over a 4-second window.
// Paper shape: the OS receives packet groups every 100 ms; the application
// receives batches of ~10 packets once per second (interleaving release).
void fig12(const StudyResults& study) {
  const auto& run = run_of(study, "set5/M-h");  // 250.4 Kbps, the figure's regime

  const auto series = figures::layer_receipt_series(run, Duration::seconds(32),
                                                    Duration::seconds(4));

  std::printf("--- network layer (%zu packets in window) ---\n", series.network.size());
  for (std::size_t i = 0; i < series.network.size(); i += 5)
    std::printf("  t=%.3fs  seq=%u\n", series.network[i].first, series.network[i].second);

  std::printf("\n--- application layer (%zu packets in window) ---\n",
              series.application.size());
  std::map<double, int> batches;
  for (const auto& [t, _] : series.application) ++batches[t];
  for (const auto& [t, count] : batches)
    std::printf("  t=%.3fs  batch of %d packets\n", t, count);

  render::Series net{"network layer", 'n', {}}, app{"application layer", 'A', {}};
  for (const auto& [t, i] : series.network) net.points.emplace_back(t, i);
  for (const auto& [t, i] : series.application) app.points.emplace_back(t, i);
  std::printf("\n%s", render::xy_plot({net, app}, 72, 18).c_str());

  // Quantify the two cadences.
  std::vector<double> net_gaps;
  for (std::size_t i = 1; i < series.network.size(); ++i) {
    const double gap = series.network[i].first - series.network[i - 1].first;
    if (gap > 1e-6) net_gaps.push_back(gap);
  }
  double net_gap_sum = 0;
  for (const double g : net_gaps) net_gap_sum += g;
  std::printf("\nnetwork-layer group cadence: %.0f ms (paper: 100 ms)\n",
              1000.0 * net_gap_sum / static_cast<double>(net_gaps.size()));
  double batch_sum = 0;
  for (const auto& [t, count] : batches) batch_sum += count;
  std::printf("application batch size:      %.1f pkts once per second (paper: ~10)\n",
              batch_sum / static_cast<double>(batches.size()));
}

// Figure 13: frame rate vs time for a single clip set (data set 5).
// Paper shape: both high-rate clips reach 25 fps; the low MediaPlayer clip
// plays at ~13 fps; the low RealPlayer clip is significantly higher.
void fig13(const StudyResults& study) {
  const std::vector<std::pair<std::string, char>> clips = {
      {"set5/R-h", 'A'}, {"set5/R-l", 'B'}, {"set5/M-h", 'C'}, {"set5/M-l", 'D'}};

  std::vector<render::Series> series;
  for (const auto& [id, glyph] : clips) {
    const auto& run = run_of(study, id);
    const auto timeline = figures::framerate_timeline(run);
    std::printf("--- %s (%s) ---\n", id.c_str(),
                to_string(run.clip.encoded_rate).c_str());
    std::printf("  t(s)  fps\n");
    for (std::size_t i = 0; i < timeline.size(); i += 10)
      std::printf("  %-5.0f %-6.1f %s\n", timeline[i].first, timeline[i].second,
                  ascii_bar(timeline[i].second / 30.0, 30).c_str());
    std::printf("  average playing-phase frame rate: %.1f fps\n\n",
                run.tracker.average_frame_rate);

    render::Series s{id, glyph, {}};
    for (const auto& [t, fps] : timeline) s.points.emplace_back(t, fps);
    series.push_back(std::move(s));
  }

  std::printf("%s", render::xy_plot(series, 76, 18).c_str());
  std::printf("\npaper: R-217K and M-250K both ~25 fps; M-39K lowest at 13 fps;\n"
              "       R-22K significantly higher than M-39K\n");
}

// Figure 14: average frame rate vs average encoding rate over all data
// sets, with per-tier means and standard-error bars.
// Paper shape: at low rates MediaPlayer's frame rate is clearly below
// RealPlayer's; at high and very-high rates the two players converge.
void fig14(const StudyResults& study) {
  const auto points = figures::framerate_vs_encoding(study);

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    rows.push_back({p.player == PlayerKind::kRealPlayer ? "Real" : "Media",
                    to_string(p.tier), fmt_double(p.x, 1), fmt_double(p.fps, 1)});
  }
  std::printf("%s\n",
              render::table({"Player", "Tier", "Encoding Kbps", "fps"}, rows).c_str());

  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    std::printf("%s per-tier summary (mean ± stderr):\n", to_string(player).c_str());
    for (const auto& t : figures::summarize_by_tier(points, player)) {
      std::printf("  %-10s n=%zu  x=%.1f Kbps  fps=%.1f ± %.2f\n",
                  to_string(t.tier).c_str(), t.count, t.mean_x, t.mean_fps,
                  t.stderr_fps);
    }
  }

  render::Series rs{"RealPlayer", 'R', {}}, ms{"MediaPlayer", 'M', {}};
  for (const auto& p : points)
    (p.player == PlayerKind::kRealPlayer ? rs : ms).points.emplace_back(p.x, p.fps);
  std::printf("\n%s", render::xy_plot({rs, ms}, 72, 16).c_str());
}

// Figure 15: average frame rate vs average playout bandwidth over all data
// sets (the x axis is the measured wire bandwidth, not the encoding rate).
// Paper shape: for the same bandwidth, RealPlayer delivers a higher frame
// rate than MediaPlayer at the low end.
void fig15(const StudyResults& study) {
  const auto points = figures::framerate_vs_bandwidth(study);

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    rows.push_back({p.player == PlayerKind::kRealPlayer ? "Real" : "Media",
                    to_string(p.tier), fmt_double(p.x, 1), fmt_double(p.fps, 1)});
  }
  std::printf("%s\n",
              render::table({"Player", "Tier", "Bandwidth Kbps", "fps"}, rows).c_str());

  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    std::printf("%s per-tier summary (mean ± stderr):\n", to_string(player).c_str());
    for (const auto& t : figures::summarize_by_tier(points, player)) {
      std::printf("  %-10s n=%zu  bw=%.1f Kbps  fps=%.1f ± %.2f\n",
                  to_string(t.tier).c_str(), t.count, t.mean_x, t.mean_fps,
                  t.stderr_fps);
    }
  }

  render::Series rs{"RealPlayer", 'R', {}}, ms{"MediaPlayer", 'M', {}};
  for (const auto& p : points)
    (p.player == PlayerKind::kRealPlayer ? rs : ms).points.emplace_back(p.x, p.fps);
  std::printf("\n%s", render::xy_plot({rs, ms}, 72, 16).c_str());
}

// Section IV: simulation of video flows. Fits the FlowModel from the full
// measured study (RTTs from Fig 1, sizes from Figs 6-7, intervals from
// Figs 8-9, fragmentation from Fig 5, startup rates from Fig 11), generates
// synthetic flows for every catalog clip, and validates them against the
// fitted distributions.
void sec4(const StudyResults& study) {
  const FlowModel model = FlowModel::fit(study);
  SyntheticFlowGenerator generator(model, /*seed=*/7);

  std::vector<std::vector<std::string>> rows;
  for (const auto& clip : all_clips()) {
    const SyntheticFlow flow = generator.generate(clip);
    const auto v = validate_against_model(flow, model);
    rows.push_back({clip.id(), fmt_double(clip.encoded_rate.to_kbps(), 1),
                    std::to_string(flow.packets.size()),
                    fmt_double(flow.mean_rate_kbps(), 1),
                    fmt_double(100.0 * flow.fragment_fraction(), 1),
                    fmt_double(flow.rtt_ms, 1), fmt_double(v.size_ks, 3),
                    fmt_double(v.interval_ks, 3)});
  }
  std::printf("%s\n", render::table({"Clip", "Enc Kbps", "Packets", "Rate Kbps",
                                     "Frag %", "RTT ms", "KS(size)", "KS(gap)"},
                                    rows)
                          .c_str());

  // Demonstrate the ns-2 export path on one flow.
  const SyntheticFlow sample = generator.generate(*find_clip("set1/M-h"));
  std::ostringstream trace;
  write_ns_trace(trace, sample, /*flow_id=*/1);
  std::size_t lines = 0;
  for (const char c : trace.str()) lines += c == '\n';
  std::printf("ns-2 trace export of set1/M-h: %zu lines, first three:\n", lines);
  std::istringstream in(trace.str());
  std::string line;
  for (int i = 0; i < 3 && std::getline(in, line); ++i)
    std::printf("  %s\n", line.c_str());
}

// Extension (Section VI future work): streaming under bandwidth-constrained
// conditions. Sweeps bottleneck capacity for the data set 1 high-rate pair
// and reports throughput vs goodput — quantifying the Section 3.C warning
// that a fragmenting flow wastes bottleneck capacity on orphaned fragments.
void ext_congestion(const StudyResults&) {
  const auto real_clip = *find_clip("set1/R-h");    // 284.0 Kbps, no fragments
  const auto media_clip = *find_clip("set1/M-h");   // 323.1 Kbps, 66% fragments

  const std::vector<double> bottlenecks = {150, 200, 250, 300, 400, 600, 1000};
  CongestionConfig config;
  config.seed = 3;

  std::vector<std::vector<std::string>> rows;
  for (const auto& clip : {real_clip, media_clip}) {
    for (const auto& r : sweep_bottleneck(clip, bottlenecks, config)) {
      rows.push_back({clip.player == PlayerKind::kRealPlayer ? "Real" : "Media",
                      fmt_double(r.bottleneck.to_kbps(), 0),
                      fmt_double(r.offered_load, 2),
                      fmt_double(100.0 * r.packet_loss, 1),
                      fmt_double(r.throughput_kbps, 1), fmt_double(r.goodput_kbps, 1),
                      fmt_double(r.wasted_kbps, 1),
                      fmt_double(100.0 * r.goodput_efficiency(), 1),
                      fmt_double(r.reception_quality, 1)});
    }
  }
  std::printf("%s\n",
              render::table({"Player", "Bottleneck", "Load", "Loss %", "Thru Kbps",
                             "Goodput", "Wasted", "Effic %", "Quality %"},
                            rows)
                  .c_str());

  std::printf("shape to check: at loads > 1 the MediaPlayer flow's efficiency drops\n"
              "well below RealPlayer's (orphaned fragments burn the bottleneck),\n"
              "while both are ~100%% efficient when unconstrained.\n");
}

// Extension (Section VI): media scaling under a constrained bottleneck.
// Runs the same overloaded stream with adaptation off and on, and shows the
// scaling controller trading frame rate for delivery quality.
void ext_scaling(const StudyResults&) {
  const auto clip = *find_clip("set1/M-h");  // 323.1 Kbps
  const BitRate bottleneck = BitRate::kbps(220);

  CongestionConfig config;
  config.bottleneck = bottleneck;
  config.seed = 3;
  const auto baseline = run_congestion_experiment(clip, config);

  std::printf("clip %s (%.1f Kbps) through a %.0f Kbps bottleneck (load %.2f)\n\n",
              clip.id().c_str(), clip.encoded_rate.to_kbps(), bottleneck.to_kbps(),
              baseline.offered_load);

  std::printf("--- adaptation OFF ---\n");
  std::printf("  packet loss:          %.1f%%\n", 100.0 * baseline.packet_loss);
  std::printf("  goodput:              %.1f Kbps (efficiency %.1f%%)\n",
              baseline.goodput_kbps, 100.0 * baseline.goodput_efficiency());
  std::printf("  frames on time:       %.1f%%\n\n", baseline.reception_quality);

  const ScalingResult adaptive = run_scaling_experiment(clip, config);
  std::printf("--- adaptation ON (media scaling) ---\n");
  std::printf("  receiver reports:     %llu\n",
              static_cast<unsigned long long>(adaptive.reports));
  std::printf("  level changes:        %zu (final keep fraction %.2f)\n",
              adaptive.level_changes, adaptive.keep_fraction);
  std::printf("  frames thinned:       %u of %u\n", adaptive.frames_thinned,
              adaptive.frames_total);
  std::printf("  frames rendered:      %u\n", adaptive.frames_rendered);
  std::printf("  quality of sent:      %.1f%%\n\n", adaptive.quality_of_sent);

  std::printf("shape to check: scaling trades frame count for delivery quality —\n"
              "the thinned stream fits the bottleneck and its sent frames arrive.\n");
}

// Extension (Section VI): boundary traffic — several concurrent player
// sessions share one path; the client access link acts as the egress
// monitor the paper proposes.
void ext_aggregate(const StudyResults&) {
  AggregateConfig config;
  config.clip_ids = {"set1/R-h", "set1/M-h", "set5/R-l", "set5/M-l"};
  config.path = path_for_data_set(3, 77);
  config.path.bottleneck_bandwidth = BitRate::mbps(4);
  config.seed = 9;

  const AggregateResult result = run_aggregate_experiment(config);

  std::vector<std::vector<std::string>> rows;
  for (const auto& s : result.sessions) {
    rows.push_back({s.clip.id(), fmt_double(s.clip.encoded_rate.to_kbps(), 1),
                    std::to_string(s.packets), fmt_double(s.mean_rate_kbps, 1),
                    fmt_double(100.0 * s.fragment_fraction, 1),
                    fmt_double(s.frame_rate, 1), fmt_double(s.reception_quality, 1)});
  }
  std::printf("%s\n",
              render::table({"Session", "Enc Kbps", "Packets", "Rate Kbps", "Frag %",
                             "fps", "Quality %"},
                            rows)
                  .c_str());

  std::printf("boundary totals: %zu packets, mean %.1f Kbps, peak %.1f Kbps, "
              "aggregate interarrival cv %.2f\n\n",
              result.total_packets, result.aggregate_mean_kbps,
              result.aggregate_peak_kbps, result.interarrival_cv);

  std::printf("aggregate bandwidth timeline (Kbps per %0.fs window):\n",
              config.bandwidth_window.to_seconds());
  for (std::size_t i = 0; i < result.total_bandwidth_timeline.size(); i += 5) {
    const auto& [t, kbps] = result.total_bandwidth_timeline[i];
    std::printf("  %-6.0f %-8.1f %s\n", t, kbps, ascii_bar(kbps / 1200.0, 40).c_str());
  }
  std::printf("\nshape to check: the early windows carry the RealPlayer startup\n"
              "bursts stacked on the MediaPlayer CBR floor; after ~40 s the\n"
              "aggregate settles near the sum of the encoding rates.\n");
}

// Extension (Section VI): TCP-friendliness of the commercial streams.
// One UDP media flow shares a constrained bottleneck with a long-lived TCP
// bulk transfer; the table shows each flow's share against the fair share.
ClipInfo media_clip(PlayerKind player, double kbps) {
  ClipInfo c;
  c.data_set = 1;
  c.content = ContentClass::kSports;
  c.player = player;
  c.tier = kbps < 150 ? RateTier::kLow : RateTier::kHigh;
  c.encoded_rate = BitRate::kbps(kbps);
  c.advertised_rate = BitRate::kbps(kbps < 150 ? 56 : 300);
  c.length = Duration::seconds(120);
  return c;
}

void ext_tcp_friendliness(const StudyResults&) {
  FriendlinessConfig config;
  config.bottleneck = BitRate::kbps(400);
  config.seed = 5;

  constexpr PlayerKind kPlayers[] = {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer};
  constexpr double kRates[] = {100.0, 200.0, 300.0, 350.0};
  // Run i is player i / 4 at rate i % 4: eight independent experiments on
  // the job pool, one table row each, in run order.
  const auto player_of = [&](std::size_t i) { return kPlayers[i / std::size(kRates)]; };
  const auto rate_of = [&](std::size_t i) { return kRates[i % std::size(kRates)]; };
  std::vector<FriendlinessResult> results(std::size(kPlayers) * std::size(kRates));
  run_jobs(
      results.size(), /*workers=*/0,
      [&](std::size_t i, std::size_t) {
        results[i] = run_friendliness_experiment(media_clip(player_of(i), rate_of(i)), config);
      },
      [](std::size_t) {});

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FriendlinessResult& r = results[i];
    rows.push_back({player_of(i) == PlayerKind::kRealPlayer ? "Real" : "Media",
                    fmt_double(rate_of(i), 0), fmt_double(r.fair_share_kbps, 0),
                    fmt_double(r.media_share_kbps, 1), fmt_double(r.tcp_share_kbps, 1),
                    fmt_double(r.media_fairness_index, 2), fmt_double(100.0 * r.media_loss, 1),
                    std::to_string(r.tcp_retransmissions)});
  }
  std::printf("%s\n",
              render::table({"Player", "Enc Kbps", "Fair", "Media share", "TCP share",
                             "Fairness", "Media loss %", "TCP rexmits"},
                            rows)
                  .c_str());

  std::printf(
      "shape to check: neither stream backs off to the fair share — the media\n"
      "share rises with the encoding rate (fairness index > 1 once the rate\n"
      "exceeds capacity/2) while TCP's share shrinks. RealPlayer's wire share\n"
      "runs above its encoding rate; MediaPlayer's falls about 10%% short of it\n"
      "at 300-350 Kbps, where it loses 9-10%% of its packets.\n");
}

const std::vector<int> kAllSets = {1, 2, 3, 4, 5, 6};

// A measured claim value: counts in full, anything else to 4 digits.
std::string fmt_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, std::abs(v) < 1e9 && v == std::floor(v) ? "%.0f" : "%.4g",
                v);
  return buf;
}

// The verdict tables of EXPERIMENTS.md: every paper claim measured on the
// full study, one markdown table per output in registry order. A failing
// claim is marked ✘; the render throws after printing, so `reproduce
// claims` exits nonzero.
void claims(const StudyResults& study) {
  std::size_t held = 0;
  for (const Output& o : outputs()) {
    bool any = false;
    std::string_view last_paper;
    for (const PaperClaim& c : paper_claims()) {
      if (c.output != std::string_view(o.id)) continue;
      if (!any)
        std::printf("## %s — %s (`reproduce %s`)\n\n"
                    "| Claim | Paper | Measured | Value | Bound | Verdict |\n"
                    "|---|---|---|---|---|---|\n",
                    o.heading, o.title, o.id);
      const double value = c.measure(study);
      const bool ok = c.bound.admits(value);
      held += ok;
      std::printf("| `%s` | %s | %s | %s | %s | %s |\n", c.id,
                  c.paper == last_paper ? "" : c.paper, c.quantity,
                  fmt_value(value).c_str(), c.bound.describe().c_str(), ok ? "✔" : "✘");
      any = true;
      last_paper = c.paper;
    }
    if (any) std::printf("\n");
  }
  std::printf("%zu of %zu claims hold.\n", held, paper_claims().size());
  if (held != paper_claims().size())
    throw std::runtime_error(std::to_string(paper_claims().size() - held) + " claims fail");
}

const std::vector<Output> kOutputs = {
    {"table1", "Table 1", "Experiment data sets",
     "6 sets, 26 clips; R/M encoded Kbps per tier; lengths 0:39-4:05", kAllSets, table1},
    {"fig01", "Figure 1", "CDF of RTT",
     "median RTT ~40 ms, max ~160 ms across six server paths", kAllSets, fig01},
    {"fig02", "Figure 2", "CDF of Number of Hops",
     "most servers between 15 and 20 hops away (range 10-25)", kAllSets, fig02},
    {"fig03", "Figure 3", "Average Playback Data Rate vs Encoding Data Rate",
     "MediaPlayer plays at its encoding rate; RealPlayer above it", kAllSets, fig03},
    {"fig04", "Figure 4", "Packet Arrivals vs Time (Data Set 5, high)",
     "MediaPlayer: regular packet groups w/ fragments; RealPlayer: spread", {5}, fig04},
    {"fig05", "Figure 5", "MediaPlayer IP Fragmentation vs Encoded Data Rate",
     "0% below 100 Kbps; 66% at ~300 Kbps; up to ~80%+ at 637+ Kbps", kAllSets, fig05},
    {"fig06", "Figure 6", "PDF of Packet Size (Data Set 1, Low Bandwidth)",
     "MediaPlayer: one dense peak 800-1000 B; RealPlayer: spread", {1}, fig06},
    {"fig07", "Figure 7", "PDF of Normalized Packet Size (All Data Sets)",
     "MediaPlayer concentrated at 1.0; RealPlayer spread 0.6-1.8", kAllSets, fig07},
    {"fig08", "Figure 8", "PDF of Packet Interarrival Times (Data Set 1, Low)",
     "MediaPlayer: constant interval spike; RealPlayer: wide spread", {1}, fig08},
    {"fig09", "Figure 9", "CDF of Normalized Packet Interarrival Times (All Sets)",
     "MediaPlayer: steep step at 1.0; RealPlayer: gradual slope", kAllSets, fig09},
    {"fig10", "Figure 10", "Bandwidth vs Time for Single Clip Set (Data Set 1)",
     "RealPlayer startup burst then steady; MediaPlayer flat CBR", {1}, fig10},
    {"fig11", "Figure 11", "Buffering Rate / Playing Rate vs Encoding Rate (RealPlayer)",
     "~3x at low rates decreasing to ~1 at 637 Kbps", kAllSets, fig11},
    {"fig12", "Figure 12", "Packets Received by Network vs Application Layer",
     "network: groups every 100 ms; application: batches of 10 per second", {5}, fig12},
    {"fig13", "Figure 13", "Frame Rate vs Time for Single Clip Set (Data Set 5)",
     "high clips ~25 fps; M-39K ~13 fps; R-22K clearly above M", {5}, fig13},
    {"fig14", "Figure 14", "Frame Rate vs Average Encoding Rate (All Data Sets)",
     "Real > Media at low rates; similar at high/very-high", kAllSets, fig14},
    {"fig15", "Figure 15", "Frame Rate vs Average Bandwidth (All Data Sets)",
     "RealPlayer above MediaPlayer for the same bandwidth at low rates", kAllSets, fig15},
    {"sec4", "Section IV", "Simulation of Video Flows",
     "synthetic flows from the fitted empirical distributions", kAllSets, sec4},
    {"ext_congestion", "Extension: constrained bandwidth",
     "Goodput vs bottleneck capacity (data set 1, high tier)",
     "Section 3.C: fragmentation degrades goodput under congestion", {}, ext_congestion},
    {"ext_scaling", "Extension: media scaling",
     "Frame thinning under an overloaded bottleneck (set1/M-h)",
     "Section VI: both players can reduce data rates under loss", {}, ext_scaling},
    {"ext_aggregate", "Extension: boundary aggregate",
     "Four concurrent sessions through one egress link",
     "Section VI: traces at an Internet boundary, several players", {}, ext_aggregate},
    {"ext_tcp_friendliness", "Extension: TCP-friendliness",
     "UDP media stream vs TCP bulk flow over one bottleneck",
     "Section VI: commercial players are likely not TCP-friendly", {}, ext_tcp_friendliness},
    {"claims", "Claims", "Paper claim verdicts",
     "every claim of Table 1 and Figures 1-15, measured and bounded", kAllSets, claims,
     /*on_request=*/true},
};

}  // namespace

const std::vector<Output>& outputs() { return kOutputs; }

const Output* find_output(std::string_view id) {
  for (const Output& o : kOutputs)
    if (id == o.id) return &o;
  return nullptr;
}

}  // namespace streamlab::reproduce
