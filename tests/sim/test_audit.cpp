#include "sim/audit.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "sim/event_loop.hpp"

namespace streamlab {
namespace {

using audit::Auditor;
using audit::DeterminismProbe;
using audit::Invariant;
using audit::SessionPhase;

Auditor::Config check_everything() {
  Auditor::Config config;
  config.sample_every = 1;
  return config;
}

TEST(AuditStateMachine, LegalClientAndServerPaths) {
  // Client: idle -> connecting -> {established, abandoned};
  //         established -> {completed, dead}.
  EXPECT_TRUE(audit::legal_transition(SessionPhase::kIdle, SessionPhase::kConnecting));
  EXPECT_TRUE(
      audit::legal_transition(SessionPhase::kConnecting, SessionPhase::kEstablished));
  EXPECT_TRUE(
      audit::legal_transition(SessionPhase::kConnecting, SessionPhase::kAbandoned));
  EXPECT_TRUE(
      audit::legal_transition(SessionPhase::kEstablished, SessionPhase::kCompleted));
  EXPECT_TRUE(audit::legal_transition(SessionPhase::kEstablished, SessionPhase::kDead));
  // Server: idle -> streaming -> finished.
  EXPECT_TRUE(audit::legal_transition(SessionPhase::kIdle, SessionPhase::kStreaming));
  EXPECT_TRUE(
      audit::legal_transition(SessionPhase::kStreaming, SessionPhase::kFinished));
}

TEST(AuditStateMachine, IllegalTransitionsRejected) {
  // Terminal phases admit no successor.
  EXPECT_FALSE(
      audit::legal_transition(SessionPhase::kCompleted, SessionPhase::kConnecting));
  EXPECT_FALSE(audit::legal_transition(SessionPhase::kDead, SessionPhase::kEstablished));
  EXPECT_FALSE(audit::legal_transition(SessionPhase::kFinished, SessionPhase::kStreaming));
  // Skipping a phase is illegal.
  EXPECT_FALSE(audit::legal_transition(SessionPhase::kIdle, SessionPhase::kEstablished));
  EXPECT_FALSE(
      audit::legal_transition(SessionPhase::kConnecting, SessionPhase::kCompleted));
  // Crossing the two machines is illegal.
  EXPECT_FALSE(
      audit::legal_transition(SessionPhase::kStreaming, SessionPhase::kCompleted));
}

TEST(Auditor, IllegalSessionTransitionRecordsViolation) {
  // kAbandoned is terminal: nothing may leave it (kEstablished -> kConnecting
  // became legal with mirror failover, so it no longer serves as the example).
  Auditor auditor(check_everything());
  auditor.on_session_transition("client.test", SessionPhase::kAbandoned,
                                SessionPhase::kConnecting, SimTime::from_seconds(1.0));
  EXPECT_FALSE(auditor.report().clean());
  EXPECT_EQ(auditor.violations_by(Invariant::kSessionState), 1u);
  ASSERT_EQ(auditor.report().violations.size(), 1u);
  EXPECT_NE(auditor.report().violations.front().detail.find("client.test"),
            std::string::npos);
}

TEST(Auditor, LegalTransitionIsClean) {
  Auditor auditor(check_everything());
  auditor.on_session_transition("server", SessionPhase::kIdle, SessionPhase::kStreaming,
                                SimTime::zero());
  auditor.on_session_transition("server", SessionPhase::kStreaming,
                                SessionPhase::kFinished, SimTime::from_seconds(2.0));
  EXPECT_TRUE(auditor.report().clean());
  EXPECT_EQ(auditor.report().checks_performed, 2u);
}

TEST(Auditor, MonotoneTimeViolationDetected) {
  Auditor auditor(check_everything());
  auditor.on_event_dispatch(SimTime::from_seconds(1.0), SimTime::from_seconds(2.0));
  EXPECT_EQ(auditor.violations_by(Invariant::kMonotoneTime), 1u);
  auditor.on_event_dispatch(SimTime::from_seconds(3.0), SimTime::from_seconds(2.0));
  EXPECT_EQ(auditor.violations_by(Invariant::kMonotoneTime), 1u);
}

TEST(Auditor, QueueBoundsViolationDetected) {
  Auditor auditor(check_everything());
  auditor.on_link_enqueue(512, 1024, SimTime::zero(), "bottleneck");
  EXPECT_TRUE(auditor.report().clean());
  auditor.on_link_enqueue(2048, 1024, SimTime::zero(), "bottleneck");
  EXPECT_EQ(auditor.violations_by(Invariant::kQueueBounds), 1u);
}

TEST(Auditor, TtlSanityViolationDetected) {
  Auditor auditor(check_everything());
  auditor.on_delivery_ttl(64, SimTime::zero(), "client");
  EXPECT_TRUE(auditor.report().clean());
  auditor.on_delivery_ttl(0, SimTime::zero(), "client");
  EXPECT_EQ(auditor.violations_by(Invariant::kTtlSanity), 1u);
}

TEST(Auditor, SamplingSkipsBetweenNthEvents) {
  Auditor::Config config;
  config.sample_every = 4;
  Auditor auditor(config);
  // Every call presents an invalid TTL; only sampled calls (or all of them
  // in a full-audit build) actually check.
  for (int i = 0; i < 8; ++i) auditor.on_delivery_ttl(0, SimTime::zero(), "client");
  EXPECT_EQ(auditor.report().checks_performed, 8u);
  const std::uint64_t expected = audit::kFullAudit ? 8u : 2u;
  EXPECT_EQ(auditor.violations_by(Invariant::kTtlSanity), expected);
}

TEST(Auditor, ConservationBalancedLedgerIsClean) {
  Auditor auditor;
  // 10 injected = 6 delivered + 2 dropped + 1 queued + 1 in flight: a
  // truncated-but-balanced trial.
  auditor.check_conservation("link.ab", 10, 6, 2, 1, 1, SimTime::from_seconds(3.0));
  EXPECT_TRUE(auditor.report().clean());
}

TEST(Auditor, ConservationUnbalancedLedgerViolates) {
  Auditor auditor;
  auditor.check_conservation("link.ab", 10, 6, 2, 1, 0, SimTime::from_seconds(3.0));
  EXPECT_EQ(auditor.violations_by(Invariant::kPacketConservation), 1u);
  ASSERT_FALSE(auditor.report().violations.empty());
  EXPECT_NE(auditor.report().violations.front().detail.find("link.ab"),
            std::string::npos);
}

TEST(Auditor, ForceViolationIsReported) {
  Auditor auditor;
  EXPECT_TRUE(auditor.report().clean());
  auditor.force_violation("planted by test");
  EXPECT_FALSE(auditor.report().clean());
  EXPECT_EQ(auditor.violations_by(Invariant::kForced), 1u);
  EXPECT_NE(auditor.report().summary().find("planted by test"), std::string::npos);
}

TEST(Auditor, RetentionCapKeepsCounting) {
  Auditor::Config config;
  config.max_retained = 2;
  Auditor auditor(config);
  for (int i = 0; i < 5; ++i) auditor.force_violation("v" + std::to_string(i));
  EXPECT_EQ(auditor.report().violations.size(), 2u);
  EXPECT_EQ(auditor.report().total_violations, 5u);
}

TEST(Auditor, SummaryReadsCleanOrFirstViolation) {
  Auditor auditor;
  auditor.check_conservation("l", 1, 1, 0, 0, 0, SimTime::zero());
  EXPECT_NE(auditor.report().summary().find("clean"), std::string::npos);
  auditor.force_violation("boom");
  EXPECT_NE(auditor.report().summary().find("boom"), std::string::npos);
}

TEST(Auditor, AttachObsMirrorsCountsOnRegistry) {
  Auditor auditor(check_everything());
  auditor.force_violation("before attach");
  obs::Obs obs;
  auditor.attach_obs(obs);
  auditor.force_violation("after attach");
  auditor.on_delivery_ttl(64, SimTime::zero(), "client");
  EXPECT_EQ(obs.registry().counter("audit.violations").value(), 2u);
  EXPECT_EQ(obs.registry().counter("audit.checks").value(),
            auditor.report().checks_performed);
}

TEST(Auditor, LoopDispatchHookIsCleanOnOrderedEvents) {
  EventLoop loop;
  Auditor auditor(check_everything());
  loop.set_auditor(&auditor);
  for (int i = 0; i < 16; ++i)
    loop.schedule_at(SimTime::from_seconds(0.1 * i), [] {});
  loop.run();
  EXPECT_TRUE(auditor.report().clean());
  EXPECT_EQ(auditor.report().checks_performed, 16u);
}

TEST(DeterminismProbe, IdenticalStreamsMatch) {
  DeterminismProbe a;
  DeterminismProbe b;
  a.enable_recording(true);
  b.enable_recording(true);
  for (int i = 0; i < 20; ++i) {
    a.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
    b.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.events(), 20u);
  EXPECT_EQ(audit::first_divergence(a, b), std::nullopt);
}

TEST(DeterminismProbe, PinpointsFirstDivergentEvent) {
  DeterminismProbe a;
  DeterminismProbe b;
  a.enable_recording(true);
  b.enable_recording(true);
  for (int i = 0; i < 5; ++i) {
    a.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
    b.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
  }
  a.fold(SimTime::from_seconds(5.0), 17, 5, 1400);
  b.fold(SimTime::from_seconds(5.0), 17, 5, 1401);  // one byte longer
  a.fold(SimTime::from_seconds(6.0), 17, 6, 1400);
  b.fold(SimTime::from_seconds(6.0), 17, 6, 1400);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_EQ(audit::first_divergence(a, b), std::optional<std::uint64_t>(5));
}

TEST(DeterminismProbe, PrefixStreamDivergesAtItsEnd) {
  DeterminismProbe a;
  DeterminismProbe b;
  a.enable_recording(true);
  b.enable_recording(true);
  for (int i = 0; i < 6; ++i)
    a.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
  for (int i = 0; i < 4; ++i)
    b.fold(SimTime::from_seconds(i), 17, static_cast<std::uint16_t>(i), 1400);
  EXPECT_EQ(audit::first_divergence(a, b), std::optional<std::uint64_t>(4));
}

TEST(DeterminismProbe, DigestWithoutRecordingStillDiscriminates) {
  DeterminismProbe a;
  DeterminismProbe b;
  a.fold(SimTime::from_seconds(1.0), 17, 1, 1400);
  b.fold(SimTime::from_seconds(1.0), 17, 1, 1401);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_TRUE(a.entries().empty());
}

}  // namespace
}  // namespace streamlab
