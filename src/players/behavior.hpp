// Behavioural parameter sets for the two player models.
//
// Every constant here is calibrated against a quantitative claim in the
// paper; the comment on each field cites the figure/section it reproduces.
// Tests in tests/players assert the derived quantities (fragment fractions,
// buffering ratios, burst durations) against the paper's reported values.
#pragma once

#include <cstddef>

#include "media/clip.hpp"
#include "util/rate.hpp"
#include "util/time.hpp"

namespace streamlab {

/// Windows MediaPlayer server/client behaviour.
struct WmBehavior {
  /// The server emits one application frame per this interval at high rates
  /// (Figure 12: the OS receives packet groups every 100 ms).
  Duration frame_interval = Duration::millis(100);

  /// Low-rate clips use a minimum datagram payload instead of shrinking the
  /// interval's worth of bytes below it, giving the 800-1000 byte packets of
  /// Figure 6 and the ~0.14 s interarrivals of Figure 8.
  std::size_t min_media_per_datagram = 850;

  /// Client delay buffer filled at playout rate before rendering begins
  /// (Section 3.F: MediaPlayer "always buffers at the same rate as it plays
  /// back", so the buffer is simply a playout offset).
  Duration preroll = Duration::seconds(5);

  /// Application-layer interleaving: the player engine releases received
  /// packets to the application in batches once per second (Figure 12:
  /// "groups of 10, once per second").
  Duration app_batch_interval = Duration::seconds(1);

  /// Media bytes the server packs into one datagram at this encoding rate.
  std::size_t media_per_datagram(BitRate rate) const;
  /// Constant send interval preserving the encoding rate (CBR pacing).
  Duration send_interval(BitRate rate, std::size_t media_len) const;

  bool operator==(const WmBehavior&) const = default;
};

/// RealPlayer server/client behaviour.
struct RmBehavior {
  /// Buffering ratio at/below the 56 Kbps tier (Figure 11: "as high as 3").
  double ratio_at_low = 3.0;
  /// Rate the ratio decays with encoding rate: ratio = ratio_at_low *
  /// (56 Kbps / rate)^exponent, clamped to [floor, ratio_at_low]. At the
  /// 637 Kbps clip this lands near 1 (Figure 11).
  double ratio_exponent = 0.45;
  double ratio_floor = 1.05;

  /// Startup burst duration: ~20 s for low-rate clips to ~40 s for high-rate
  /// clips (Section IV), interpolated in log-rate between the tiers.
  Duration burst_at_low = Duration::seconds(20);
  Duration burst_at_high = Duration::seconds(40);
  /// The server stops bursting once its delay-buffer target is reached; for
  /// clips shorter than the nominal burst this caps the burst at a fraction
  /// of the clip, so short clips still show a distinct steady phase
  /// (Figure 11 plots ratios near 3 even for the 39-60 s clips).
  double burst_max_fraction_of_clip = 0.25;

  /// Client preroll before rendering begins.
  Duration preroll = Duration::seconds(4);

  /// Packet sizes: drawn per-packet as mean x a right-skewed multiplier
  /// (lognormal with mean 1 and this CV, clamped to the spread range), so
  /// sizes cover roughly 0.6-1.8x the mean with more mass below 1 —
  /// Figure 7's RealPlayer shape — and never exceed max_payload, so no
  /// RealPlayer packet ever fragments (Figures 4-5).
  double size_cv = 0.32;
  double size_spread_min = 0.60;
  double size_spread_max = 1.80;
  std::size_t max_media_per_datagram = 1400;
  std::size_t min_media_per_datagram = 128;

  /// Interarrival noise: multiplicative lognormal with this coefficient of
  /// variation (Figures 8-9: RealPlayer interarrivals spread widely).
  double interarrival_cv = 0.45;

  double buffering_ratio(BitRate rate) const;
  Duration burst_duration(BitRate rate) const;
  /// Burst duration after the short-clip cap.
  Duration burst_duration_for_clip(BitRate rate, Duration clip_length) const;
  /// Mean media bytes per datagram at this rate.
  std::size_t mean_media_per_datagram(BitRate rate) const;

  bool operator==(const RmBehavior&) const = default;
};

}  // namespace streamlab
