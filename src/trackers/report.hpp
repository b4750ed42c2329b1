// Tracker data model: the application-layer statistics MediaTracker and
// RealTracker record while a clip plays (Section 2.B of the paper).
#pragma once

#include <string>
#include <vector>

#include "media/clip.hpp"
#include "util/rate.hpp"
#include "util/time.hpp"

namespace streamlab {

/// One polling-interval sample of the player engine's statistics.
struct TrackerSample {
  SimTime time;
  double frame_rate_fps = 0.0;       ///< frames rendered over the last interval
  BitRate playback_bandwidth;        ///< bits received over the last interval
  std::uint64_t packets_received = 0;   ///< cumulative
  std::uint64_t packets_lost = 0;       ///< cumulative
  std::uint64_t packets_recovered = 0;  ///< cumulative (error repair, §2.B)
  bool buffering = false;               ///< playout has not begun yet
};

/// A full tracker session for one clip.
struct TrackerReport {
  std::string clip_id;
  PlayerKind player = PlayerKind::kMediaPlayer;
  std::string transport = "UDP";     ///< the study forces UDP
  BitRate encoded_rate;              ///< as reported by the player engine
  Duration clip_length;
  std::vector<TrackerSample> samples;

  // Session summary, valid after the clip finishes.
  BitRate average_playback_bandwidth;  ///< over the whole reception
  double average_frame_rate = 0.0;     ///< over the playing phase
  std::uint64_t total_packets = 0;
  std::uint64_t total_lost = 0;
  std::uint64_t total_recovered = 0;  ///< packets the repair layer delivered
  std::uint32_t frames_rendered = 0;
  std::uint32_t frames_dropped = 0;
  Duration startup_delay;              ///< PLAY to first rendered frame
  Duration streaming_duration;         ///< first to last data packet

  /// Reception quality as the products reported it: percentage of frames
  /// delivered on time. The counts are summed in 64-bit integer space first
  /// (not via double conversion of each operand) so the all-dropped and
  /// zero-frame boundary cases divide exactly.
  double reception_quality() const {
    const std::uint64_t total =
        static_cast<std::uint64_t>(frames_rendered) + static_cast<std::uint64_t>(frames_dropped);
    if (total == 0) return 0.0;
    return 100.0 * static_cast<double>(frames_rendered) / static_cast<double>(total);
  }
};

}  // namespace streamlab
