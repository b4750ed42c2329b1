// End-to-end observability: a turbulence scenario run with an Obs attached
// must produce the promised timeline — a fault-episode span, rebuffer
// spans, queue-depth counter samples — and the exported Chrome trace must
// be valid JSON with those events in it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/turbulence.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "util/strings.hpp"

namespace streamlab {
namespace {

TurbulenceScenarioConfig short_outage_config(obs::Obs* obs) {
  TurbulenceScenarioConfig cfg = turbulence_scenario("short-outage").config({});
  cfg.obs = obs;
  return cfg;
}

struct ObservedRun {
  obs::Obs obs;
  TurbulenceRunResult result;
};

ObservedRun& observed_run() {
  static ObservedRun run;
  static const bool init = [] {
    const ClipSet& set = table1_catalog()[0];
    const auto pair = set.pair(RateTier::kLow);
    // The media clip with rebuffering on: the 4 s outage forces stalls.
    run.result = run_turbulence_clip(pair->second, short_outage_config(&run.obs));
    return true;
  }();
  (void)init;
  return run;
}

std::uint64_t counter_value(const obs::Obs& obs, const std::string& name) {
  for (const auto& [n, v] : obs.registry().counters())
    if (n == name) return v;
  return 0;
}

TEST(ObsIntegration, ScenarioCompletesWithObserverAttached) {
  const auto& run = observed_run();
  ASSERT_TRUE(run.result.media.has_value());
  EXPECT_TRUE(run.result.media->completed);
  EXPECT_GT(run.result.media->rebuffer_events, 0u);
}

TEST(ObsIntegration, LoopCountersCoverEveryFiredEvent) {
  const obs::Obs& obs = observed_run().obs;
  const std::uint64_t total = counter_value(obs, "loop.events_fired");
  EXPECT_GT(total, 1000u);
  std::uint64_t by_category = 0;
  for (const auto& [name, value] : obs.registry().counters())
    if (name.rfind("loop.fired.", 0) == 0) by_category += value;
  EXPECT_EQ(by_category, total);
  // The scenario exercises links, playout, control timers and faults.
  EXPECT_GT(counter_value(obs, "loop.fired.link"), 0u);
  EXPECT_GT(counter_value(obs, "loop.fired.playout"), 0u);
  EXPECT_GT(counter_value(obs, "loop.fired.control"), 0u);
  EXPECT_EQ(counter_value(obs, "loop.fired.fault"), 2u);  // apply + clear
}

TEST(ObsIntegration, LinkAndPlayerCountersRecorded) {
  const obs::Obs& obs = observed_run().obs;
  EXPECT_GT(counter_value(obs, "link.bottleneck.delivered"), 0u);
  // The outage drops every packet on the wire for 4 s.
  EXPECT_GT(counter_value(obs, "link.bottleneck.drops_outage"), 0u);
  EXPECT_EQ(counter_value(obs, "player.media.play_attempts"), 1u);
  EXPECT_EQ(counter_value(obs, "player.media.rebuffer_events"),
            observed_run().result.media->rebuffer_events);
}

TEST(ObsIntegration, TraceHasFaultSpanRebufferSpanAndQueueSamples) {
  const obs::Obs& obs = observed_run().obs;
  const obs::Tracer& tracer = obs.tracer();
  bool fault_begin = false, fault_end = false;
  bool rebuffer_begin = false, rebuffer_end = false;
  bool loop_depth_sample = false, link_queue_sample = false;
  tracer.for_each([&](const obs::TraceRecord& r) {
    const std::string& name = tracer.string(r.name);
    if (r.kind == obs::RecordKind::kSpanBegin) {
      if (name.rfind("fault:outage", 0) == 0) fault_begin = true;
      if (name == "rebuffer") rebuffer_begin = true;
    } else if (r.kind == obs::RecordKind::kSpanEnd) {
      if (name.rfind("fault:outage", 0) == 0) fault_end = true;
      if (name == "rebuffer") rebuffer_end = true;
    } else if (r.kind == obs::RecordKind::kCounter) {
      if (name == "loop.queue_depth") loop_depth_sample = true;
      if (name.rfind("link.bottleneck.queue_bytes", 0) == 0) link_queue_sample = true;
    }
  });
  EXPECT_TRUE(fault_begin);
  EXPECT_TRUE(fault_end);
  EXPECT_TRUE(rebuffer_begin);
  EXPECT_TRUE(rebuffer_end);
  EXPECT_TRUE(loop_depth_sample);
  EXPECT_TRUE(link_queue_sample);
}

TEST(ObsIntegration, ExportedChromeTraceIsValidAndComplete) {
  const std::string dir = testing::TempDir() + "/streamlab_obs_export";
  std::filesystem::remove_all(dir);
  const int written = obs::export_trace(observed_run().obs, dir);
  EXPECT_EQ(written, 4);
  for (const char* f : {"trace.json", "trace.ndjson", "timeseries.csv", "metrics.csv"})
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + f)) << f;

  std::ifstream in(dir + "/trace.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(testjson::json_validate(json), "");
  EXPECT_NE(json.find("fault:outage:short-flap"), std::string::npos);
  EXPECT_NE(json.find("\"rebuffer\""), std::string::npos);
  EXPECT_NE(json.find("loop.queue_depth"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ObsIntegration, ExportedTimeseriesRoundTripsMonotone) {
  std::ostringstream out;
  obs::write_timeseries_csv(observed_run().obs, out);
  const auto lines = split(out.str(), '\n');
  ASSERT_GT(lines.size(), 10u);
  EXPECT_EQ(lines[0], "time_s,metric,value");
  double prev = -1.0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = split(lines[i], ',');
    ASSERT_EQ(fields.size(), 3u) << lines[i];
    const double t = std::stod(fields[0]);
    ASSERT_GE(t, prev) << "row " << i << " breaks time order";
    prev = t;
  }
}

TEST(ObsIntegration, RunIsDeterministicUnderObservation) {
  // Attaching an observer must not perturb the simulation itself.
  const ClipSet& set = table1_catalog()[0];
  const auto pair = set.pair(RateTier::kLow);
  const TurbulenceRunResult bare =
      run_turbulence_clip(pair->second, short_outage_config(nullptr));
  const auto& observed = observed_run().result;
  ASSERT_TRUE(bare.media.has_value());
  EXPECT_EQ(bare.media->frames_rendered, observed.media->frames_rendered);
  EXPECT_EQ(bare.media->packets_received, observed.media->packets_received);
  EXPECT_EQ(bare.media->rebuffer_events, observed.media->rebuffer_events);
  EXPECT_EQ(bare.media->stall_time.ns(), observed.media->stall_time.ns());
}

}  // namespace
}  // namespace streamlab
