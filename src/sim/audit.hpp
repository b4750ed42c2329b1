// Runtime invariant auditor + determinism probe.
//
// Large fault-injection campaigns are only as trustworthy as the worst
// unchecked trial: an invariant silently violated mid-sim poisons every
// aggregate built on top of it. The Auditor makes the simulator's core
// invariants *checked properties*: packet conservation on every link
// (injected = delivered + dropped + queued + in-flight), monotone sim-time
// dispatch, queue-occupancy bounds, TTL sanity on delivery, and session
// state-machine legality. Violations are recorded as structured
// AuditViolation records rather than asserts, so a campaign can quarantine
// the bad trial and keep the rest of the study (each trial writes the
// report's counts into its obs registry as "audit.checks"/
// "audit.violations").
//
// Cost model: a cheap sampled subset of the checks is always available —
// attaching an Auditor costs one pointer test per instrumented site and a
// counter increment on the sampled events. Building with -DSTREAMLAB_AUDIT=ON
// checks every event and adds the expensive recomputations (full queue-byte
// resum on every link enqueue).
//
// The DeterminismProbe turns "the full study is deterministic"
// (EXPERIMENTS.md) into a checked property: a running 64-bit digest of
// (sim-time, IP protocol, IP id, wire size) folded at the client NIC, with an
// optional per-event record so two runs of one seed can be compared and the
// first divergent event pinpointed by index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace streamlab::audit {

#ifdef STREAMLAB_AUDIT
inline constexpr bool kFullAudit = true;
#else
inline constexpr bool kFullAudit = false;
#endif

enum class Invariant : std::uint8_t {
  kMonotoneTime,        ///< event dispatched before the clock's current time
  kQueueBounds,         ///< link queue exceeded its drop-tail threshold
  kTtlSanity,           ///< packet delivered with an expired/absurd TTL
  kPacketConservation,  ///< link ledger does not balance at trial end
  kSessionState,        ///< illegal player session state transition
  kRoutingLoop,         ///< forwarding tables form a cycle (TTL-storm fuel)
  kForced,              ///< test-only fault hook
  kCount,
};

const char* to_string(Invariant invariant);

/// Legal player/server session phases, shared by client and server state
/// machines so one legality table covers both:
///   client: kIdle -> kConnecting -> {kEstablished, kAbandoned};
///           kEstablished -> {kCompleted, kDead, kConnecting}
///           (kEstablished -> kConnecting is mirror failover: the session
///           re-enters connection establishment against the next server)
///   server: kIdle -> kStreaming -> kFinished
enum class SessionPhase : std::uint8_t {
  kIdle,
  kConnecting,
  kEstablished,
  kCompleted,
  kAbandoned,
  kDead,
  kStreaming,
  kFinished,
  kCount,
};

const char* to_string(SessionPhase phase);

/// True when `from -> to` is a legal transition of either state machine.
bool legal_transition(SessionPhase from, SessionPhase to);

struct AuditViolation {
  Invariant invariant = Invariant::kForced;
  SimTime time;
  std::string detail;   ///< human-readable site description
  double value = 0.0;   ///< measured quantity (bytes, ns, ttl, ...)
  double limit = 0.0;   ///< the bound it broke
};

/// Immutable summary of one trial's audit: every retained violation plus the
/// totals (retention is capped; the total keeps counting past the cap).
struct AuditReport {
  std::vector<AuditViolation> violations;
  std::uint64_t total_violations = 0;
  std::uint64_t checks_performed = 0;
  bool clean() const { return total_violations == 0; }
  /// One-line form for manifests and logs: "clean (184 checks)" or
  /// "3 violations (first: queue-bounds at t=1.2s: ...)".
  std::string summary() const;
};

class Auditor {
 public:
  struct Config {
    /// Without STREAMLAB_AUDIT, per-event checks run on every Nth event.
    /// Full-audit builds check every event regardless. Must be >= 1.
    std::uint64_t sample_every = 64;
    /// Violations retained with full detail; the rest only count.
    std::size_t max_retained = 64;
  };

  Auditor() : Auditor(Config{}) {}
  explicit Auditor(Config config);
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- Hot-path hooks (inline; sampled unless kFullAudit) ---

  /// EventLoop dispatch hook: `when` must never precede the current clock.
  void on_event_dispatch(SimTime when, SimTime now) {
    if (!sampled_check()) return;
    if (when < now)
      violation(Invariant::kMonotoneTime, now, "event dispatched before now",
                static_cast<double>(when.ns()), static_cast<double>(now.ns()));
  }

  /// Link enqueue hook: drop-tail means occupancy may never exceed the limit.
  void on_link_enqueue(std::size_t queued_bytes, std::size_t limit_bytes, SimTime now,
                       const char* link) {
    if (!sampled_check()) return;
    if (queued_bytes > limit_bytes)
      violation(Invariant::kQueueBounds, now,
                std::string(link) + " queue above drop-tail limit",
                static_cast<double>(queued_bytes), static_cast<double>(limit_bytes));
  }

  /// Delivery-time TTL sanity: a router must have dropped the packet before
  /// its TTL reached zero, and nothing may inflate it past the 8-bit range.
  void on_delivery_ttl(unsigned ttl, SimTime now, const char* where) {
    if (!sampled_check()) return;
    if (ttl == 0 || ttl > 255)
      violation(Invariant::kTtlSanity, now,
                std::string(where) + " delivered packet with invalid TTL",
                static_cast<double>(ttl), 255.0);
  }

  // --- Cold checks ---

  /// Session state machine legality; records the transition as one check.
  void on_session_transition(const char* who, SessionPhase from, SessionPhase to,
                             SimTime now);

  /// Trial-end packet conservation for one link direction:
  /// injected == delivered + dropped + still-queued + in-flight.
  void check_conservation(const std::string& label, std::uint64_t injected,
                          std::uint64_t delivered, std::uint64_t dropped,
                          std::uint64_t queued, std::uint64_t in_flight, SimTime now);

  /// Folds `n` externally-performed checks into the ledger — how batch
  /// audits (e.g. Network::audit_routing's table walks) make their coverage
  /// visible in "clean (N checks)" summaries.
  void count_checks(std::uint64_t n) { report_.checks_performed += n; }

  /// Records a violation directly (also the test-only fault hook's entry).
  void violation(Invariant invariant, SimTime now, std::string detail,
                 double value = 0.0, double limit = 0.0);
  void force_violation(std::string detail, SimTime now = SimTime::zero()) {
    violation(Invariant::kForced, now, std::move(detail));
  }

  const AuditReport& report() const { return report_; }
  std::uint64_t violations_by(Invariant invariant) const {
    return by_invariant_[static_cast<std::size_t>(invariant)];
  }

 private:
  /// Counts the event and decides whether this one runs the checks.
  bool sampled_check() {
    ++report_.checks_performed;
    if constexpr (kFullAudit) return true;
    return report_.checks_performed % sample_every_ == 0;
  }

  std::uint64_t sample_every_;
  std::size_t max_retained_;
  AuditReport report_;
  std::uint64_t by_invariant_[static_cast<std::size_t>(Invariant::kCount)] = {};
};

/// Running digest of the packet stream crossing one observation point (the
/// client NIC). Folding is order-sensitive — index, timestamp, protocol, IP
/// id and wire size all perturb the digest — so two runs of the same seed
/// must produce equal digests event-for-event. With recording enabled the
/// per-event entry hashes are retained so first_divergence() can name the
/// exact event where two runs parted ways.
class DeterminismProbe {
 public:
  void enable_recording(bool on) { recording_ = on; }

  void fold(SimTime now, std::uint8_t category, std::uint16_t packet_id,
            std::uint64_t size) {
    std::uint64_t entry = mix(static_cast<std::uint64_t>(now.ns()) ^
                              (std::uint64_t{category} << 56) ^
                              (std::uint64_t{packet_id} << 40) ^ size);
    entry = mix(entry ^ events_);
    digest_ = mix(digest_ ^ entry);
    ++events_;
    if (recording_) entries_.push_back(entry);
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t events() const { return events_; }
  const std::vector<std::uint64_t>& entries() const { return entries_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }

  std::uint64_t digest_ = 0x243F6A8885A308D3ull;  // pi, arbitrary non-zero
  std::uint64_t events_ = 0;
  bool recording_ = false;
  std::vector<std::uint64_t> entries_;
};

/// Index of the first event where two recorded probe streams diverge
/// (including one being a strict prefix of the other); nullopt when the
/// streams are identical.
std::optional<std::uint64_t> first_divergence(const DeterminismProbe& a,
                                              const DeterminismProbe& b);

}  // namespace streamlab::audit
