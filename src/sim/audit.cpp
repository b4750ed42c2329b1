#include "sim/audit.hpp"

#include <algorithm>
#include <cstdio>

namespace streamlab::audit {

const char* to_string(Invariant invariant) {
  switch (invariant) {
    case Invariant::kMonotoneTime: return "monotone-time";
    case Invariant::kQueueBounds: return "queue-bounds";
    case Invariant::kTtlSanity: return "ttl-sanity";
    case Invariant::kPacketConservation: return "packet-conservation";
    case Invariant::kSessionState: return "session-state";
    case Invariant::kRoutingLoop: return "routing-loop";
    case Invariant::kForced: return "forced";
    case Invariant::kCount: break;
  }
  return "unknown";
}

const char* to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kIdle: return "idle";
    case SessionPhase::kConnecting: return "connecting";
    case SessionPhase::kEstablished: return "established";
    case SessionPhase::kCompleted: return "completed";
    case SessionPhase::kAbandoned: return "abandoned";
    case SessionPhase::kDead: return "dead";
    case SessionPhase::kStreaming: return "streaming";
    case SessionPhase::kFinished: return "finished";
    case SessionPhase::kCount: break;
  }
  return "unknown";
}

bool legal_transition(SessionPhase from, SessionPhase to) {
  // Bitmask of legal successor phases per source phase.
  auto bit = [](SessionPhase p) { return 1u << static_cast<unsigned>(p); };
  unsigned legal = 0;
  switch (from) {
    case SessionPhase::kIdle:
      legal = bit(SessionPhase::kConnecting) | bit(SessionPhase::kStreaming);
      break;
    case SessionPhase::kConnecting:
      legal = bit(SessionPhase::kEstablished) | bit(SessionPhase::kAbandoned);
      break;
    case SessionPhase::kEstablished:
      // kConnecting re-entry is mirror failover (players/client.hpp).
      legal = bit(SessionPhase::kCompleted) | bit(SessionPhase::kDead) |
              bit(SessionPhase::kConnecting);
      break;
    case SessionPhase::kStreaming:
      legal = bit(SessionPhase::kFinished);
      break;
    // Terminal phases admit no successor.
    case SessionPhase::kCompleted:
    case SessionPhase::kAbandoned:
    case SessionPhase::kDead:
    case SessionPhase::kFinished:
    case SessionPhase::kCount:
      legal = 0;
      break;
  }
  return (legal & bit(to)) != 0;
}

std::string AuditReport::summary() const {
  char buf[192];
  if (clean()) {
    std::snprintf(buf, sizeof buf, "clean (%llu checks)",
                  static_cast<unsigned long long>(checks_performed));
    return buf;
  }
  std::string first = violations.empty() ? std::string("detail dropped")
                                         : std::string(to_string(violations.front().invariant)) +
                                               " at " + streamlab::to_string(violations.front().time) +
                                               ": " + violations.front().detail;
  std::snprintf(buf, sizeof buf, "%llu violation%s (first: ",
                static_cast<unsigned long long>(total_violations),
                total_violations == 1 ? "" : "s");
  return std::string(buf) + first + ")";
}

Auditor::Auditor(Config config)
    : sample_every_(std::max<std::uint64_t>(1, config.sample_every)),
      max_retained_(config.max_retained) {}

void Auditor::on_session_transition(const char* who, SessionPhase from, SessionPhase to,
                                    SimTime now) {
  ++report_.checks_performed;
  if (legal_transition(from, to)) return;
  violation(Invariant::kSessionState, now,
            std::string(who) + ": illegal transition " + to_string(from) + " -> " +
                to_string(to),
            static_cast<double>(static_cast<unsigned>(from)),
            static_cast<double>(static_cast<unsigned>(to)));
}

void Auditor::check_conservation(const std::string& label, std::uint64_t injected,
                                 std::uint64_t delivered, std::uint64_t dropped,
                                 std::uint64_t queued, std::uint64_t in_flight,
                                 SimTime now) {
  ++report_.checks_performed;
  const std::uint64_t accounted = delivered + dropped + queued + in_flight;
  if (accounted == injected) return;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                " ledger: injected=%llu delivered=%llu dropped=%llu queued=%llu "
                "in-flight=%llu",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(queued),
                static_cast<unsigned long long>(in_flight));
  violation(Invariant::kPacketConservation, now, label + buf,
            static_cast<double>(accounted), static_cast<double>(injected));
}

void Auditor::violation(Invariant invariant, SimTime now, std::string detail,
                        double value, double limit) {
  ++report_.total_violations;
  ++by_invariant_[static_cast<std::size_t>(invariant)];
  if (report_.violations.size() < max_retained_) {
    report_.violations.push_back(
        AuditViolation{invariant, now, std::move(detail), value, limit});
  }
}

std::optional<std::uint64_t> first_divergence(const DeterminismProbe& a,
                                              const DeterminismProbe& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  const std::size_t common = std::min(ea.size(), eb.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (ea[i] != eb[i]) return i;
  }
  if (ea.size() != eb.size()) return common;
  return std::nullopt;
}

}  // namespace streamlab::audit
