// compare_players: the paper's core methodology on one clip set — stream
// the RealPlayer and MediaPlayer versions of the same content simultaneously
// over one simulated path, and print a side-by-side comparison of the
// network turbulence each produces.
//
// Usage: compare_players [set 1-6] [low|high|very-high]
#include <cstdio>
#include <string>

#include "analysis/stats.hpp"
#include "core/experiment.hpp"
#include "core/study.hpp"
#include "util/strings.hpp"

using namespace streamlab;

namespace {

std::string describe(const ClipRunResult& r) {
  std::string out;
  out += "  encoded rate:        " + to_string(r.clip.encoded_rate) + "\n";
  out += "  playback bandwidth:  " + to_string(r.tracker.average_playback_bandwidth) + "\n";
  out += "  wire packets:        " + std::to_string(r.flow.size()) + "\n";
  out += "  IP fragments:        " + std::to_string(r.flow.fragment_count()) + " (" +
         fmt_double(100.0 * r.flow.fragment_fraction(), 1) + "%)\n";
  const auto sizes = SummaryStats::from(r.flow.packet_sizes());
  out += "  wire size mean/sd:   " + fmt_double(sizes.mean, 0) + " / " +
         fmt_double(sizes.stddev, 0) + " bytes\n";
  const auto gaps = SummaryStats::from(
      r.flow.interarrivals(r.clip.player == PlayerKind::kMediaPlayer));
  out += "  interarrival cv:     " +
         fmt_double(gaps.mean > 0 ? gaps.stddev / gaps.mean : 0.0, 3) + "\n";
  out += "  buffering ratio:     " + fmt_double(r.buffering.ratio(), 2) +
         (r.buffering.has_buffering_phase ? " (startup burst detected)" : "") + "\n";
  out += "  streaming duration:  " +
         fmt_double(r.server_streaming_duration.to_seconds(), 1) + " s\n";
  out += "  frame rate:          " + fmt_double(r.tracker.average_frame_rate, 1) +
         " fps\n";
  out += "  reception quality:   " + fmt_double(r.tracker.reception_quality(), 1) + "%\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed_set = argc > 1 ? parse_data_set(argv[1]) : 1;
  const auto parsed_tier = argc > 2 ? parse_rate_tier(argv[2]) : RateTier::kLow;
  if (!parsed_set || !parsed_tier) {
    std::fprintf(stderr, "usage: compare_players [set 1-6] [low|high|very-high]\n");
    return 1;
  }
  const int set_id = *parsed_set;
  const RateTier tier = *parsed_tier;
  const ClipSet& set = table1_catalog()[static_cast<std::size_t>(set_id - 1)];
  if (!set.pair(tier)) {
    std::fprintf(stderr, "set %d has no %s tier (only set 6 has very-high)\n", set_id,
                 to_string(tier).c_str());
    return 1;
  }

  std::printf("Streaming data set %d (%s, %s tier) — both players concurrently\n\n",
              set_id, to_string(set.content).c_str(), to_string(tier).c_str());

  ExperimentConfig config;
  config.path = path_for_data_set(set_id, /*seed=*/2002);
  config.seed = 11;
  const PairRunResult run = run_clip_pair(set, tier, config);

  std::printf("path: %d hops, avg RTT %s, ping loss %s%%\n\n", run.route.hop_count(),
              to_string(run.ping.avg_rtt()).c_str(),
              fmt_double(100.0 * run.ping.loss_fraction(), 2).c_str());

  std::printf("--- RealPlayer (%s) ---\n%s\n", run.real.clip.id().c_str(),
              describe(run.real).c_str());
  std::printf("--- MediaPlayer (%s) ---\n%s\n", run.media.clip.id().c_str(),
              describe(run.media).c_str());

  std::printf("The paper's conclusions, on this pair:\n");
  std::printf("  * RealPlayer burstier at startup:      ratio %.2f vs %.2f\n",
              run.real.buffering.ratio(), run.media.buffering.ratio());
  std::printf("  * MediaPlayer fragments at high rates: %.1f%% vs %.1f%%\n",
              100.0 * run.media.flow.fragment_fraction(),
              100.0 * run.real.flow.fragment_fraction());
  std::printf("  * RealPlayer streams finish sooner:    %.1f s vs %.1f s\n",
              run.real.server_streaming_duration.to_seconds(),
              run.media.server_streaming_duration.to_seconds());
  std::printf("  * Frame rate at this tier:             R %.1f fps vs M %.1f fps\n",
              run.real.tracker.average_frame_rate, run.media.tracker.average_frame_rate);
  return 0;
}
