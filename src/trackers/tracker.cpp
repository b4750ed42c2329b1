#include "trackers/tracker.hpp"

namespace streamlab {

PlayerTracker::PlayerTracker(StreamClient& client, Duration poll_interval)
    : client_(client), interval_(poll_interval) {}

void PlayerTracker::start(Duration max_duration) {
  started_at_ = client_.host().loop().now();
  deadline_ = started_at_ + max_duration;
  client_.host().loop().post_in(interval_, [this] { poll(); });
}

void PlayerTracker::poll() {
  EventLoop& loop = client_.host().loop();
  const StreamClient::Stats stats = client_.stats();
  TrackerSample s;
  s.time = loop.now();
  s.frame_rate_fps = static_cast<double>(stats.frames_rendered - last_frames_rendered_) /
                     interval_.to_seconds();
  last_frames_rendered_ = stats.frames_rendered;

  s.playback_bandwidth = BitRate(static_cast<std::int64_t>(
      static_cast<double>(stats.wire_bytes - last_wire_bytes_) * 8.0 /
      interval_.to_seconds()));
  last_wire_bytes_ = stats.wire_bytes;

  s.packets_received = stats.packets_received;
  s.packets_lost = stats.packets_lost;
  s.packets_recovered = stats.packets_recovered();
  s.buffering = !client_.playback_started() ||
                loop.now() < client_.playout_start_time().value_or(SimTime::max());
  samples_.push_back(s);

  if (stats.completed || loop.now() >= deadline_) return;
  loop.post_in(interval_, [this] { poll(); });
}

TrackerReport PlayerTracker::report() const {
  TrackerReport r;
  const EncodedClip& clip = client_.clip();
  r.clip_id = clip.info().id();
  r.player = client_.kind();
  r.encoded_rate = clip.info().encoded_rate;
  r.clip_length = clip.info().length;
  r.samples = samples_;

  r.average_playback_bandwidth = client_.average_playback_rate();
  const StreamClient::Stats stats = client_.stats();
  r.total_packets = stats.packets_received;
  r.total_lost = stats.packets_lost;
  r.total_recovered = stats.packets_recovered();
  r.frames_rendered = stats.frames_rendered;
  r.frames_dropped = stats.frames_dropped;

  // Average frame rate over the playing phase only (buffering samples have
  // no frames by construction and would bias the mean).
  double fps_sum = 0.0;
  std::size_t fps_n = 0;
  for (const auto& s : samples_) {
    if (s.buffering) continue;
    fps_sum += s.frame_rate_fps;
    ++fps_n;
  }
  r.average_frame_rate = fps_n == 0 ? 0.0 : fps_sum / static_cast<double>(fps_n);

  if (client_.playout_start_time() && client_.first_data_time())
    r.startup_delay = *client_.playout_start_time() - started_at_;
  if (client_.first_data_time() && client_.last_data_time())
    r.streaming_duration = *client_.last_data_time() - *client_.first_data_time();
  return r;
}

}  // namespace streamlab
