// City-scale flyweight session fleet.
//
// One trial, N ∈ [10³, 10⁶] concurrent streaming sessions. Instead of the
// full per-session object graph (Network, Host, StreamServer, StreamClient —
// hundreds of bytes and several heap objects each), a fleet trial keeps every
// session in a struct-of-arrays table indexed by a 32-bit session id, and
// models the stream as the minimum that turbulence statistics need: CBR
// pacing from the WM behavior profile, a one-way delay with deterministic
// per-packet jitter, a shared Gilbert–Elliott burst-loss turbulence episode,
// and client-side delivery-gap rebuffer detection. Every timer is a
// handle-free EventLoop::post_* whose capture (a table pointer + index) fits
// EventFn's inline buffer — the steady state allocates nothing per event.
//
// Determinism: all randomness is hash-derived from (seed, session, seq) or
// stepped in event-fire order (the shared loss chain), so two runs with the
// same config produce identical digests — `run_fleet` is replay-verifiable
// exactly like the campaign trials (see --verify-determinism in
// turbulence_lab --fleet).
#pragma once

#include <cstddef>
#include <cstdint>

#include "players/behavior.hpp"
#include "sim/audit.hpp"
#include "sim/event_loop.hpp"
#include "util/rate.hpp"
#include "util/time.hpp"

namespace streamlab {

struct FleetConfig {
  std::size_t sessions = 1000;
  std::uint64_t seed = 1;

  /// Stream shape: CBR pacing with the minimum-datagram floor, derived from
  /// the WM behavior profile (Figures 6/8 of the paper).
  WmBehavior wm;
  BitRate media_rate = BitRate::kbps(56);
  /// Per-session stream length (the trial's turbulence episode window).
  Duration episode = Duration::seconds(20);

  /// Network model: fixed one-way delay plus deterministic per-packet jitter
  /// in [0, jitter).
  Duration one_way_delay = Duration::millis(40);
  Duration jitter = Duration::millis(12);

  /// Shared turbulence window: a Gilbert–Elliott loss chain (stepped per
  /// packet in event-fire order) that all sessions stream through.
  Duration turbulence_start = Duration::seconds(5);
  Duration turbulence_duration = Duration::seconds(6);
  double good_loss = 0.001;
  double bad_loss = 0.30;
  double p_good_to_bad = 0.02;
  double p_bad_to_good = 0.25;

  /// A delivery gap above this mid-stream counts as a rebuffer event.
  Duration rebuffer_gap = Duration::millis(600);

  /// Optional instrumentation (not owned). The auditor is attached to the
  /// loop (monotone-dispatch checks on every event under full audit) and
  /// receives a packet-conservation check at trial end; the probe folds one
  /// entry per delivered packet.
  audit::Auditor* auditor = nullptr;
  audit::DeterminismProbe* probe = nullptr;
};

struct FleetResult {
  std::size_t sessions = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t rebuffer_events = 0;
  std::size_t sessions_rebuffered = 0;
  std::uint64_t events_executed = 0;
  /// Order-sensitive digest over every delivery; equal configs must produce
  /// equal digests (the fleet determinism contract).
  std::uint64_t digest = 0;
  double delivery_ratio = 0.0;
  double sim_seconds = 0.0;
  /// Resident SoA table footprint, total and per session.
  std::size_t table_bytes = 0;
  double bytes_per_session = 0.0;
};

FleetResult run_fleet(const FleetConfig& config);

}  // namespace streamlab
