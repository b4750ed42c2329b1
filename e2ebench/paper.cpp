// Workload `paper`: regenerate the whole paper once per iteration through
// library calls — the study, Table 1 and Figures 1-15, Section IV and the
// extension experiments — serially, the way the bench mains do it piecewise.
//
// The traced phase swaps run_full_study for a copy rebuilt from the public
// pieces run_clip_pair is made of, so that path probing, simulation,
// capture, dissection and flow analysis each get their own span. The copy
// must reproduce run_full_study's per-pair results exactly, or the run
// fails: the rebuilt pipeline cannot drift from the program.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "congestion/experiment.hpp"
#include "congestion/friendliness.hpp"
#include "core/aggregate.hpp"
#include "core/figures.hpp"
#include "core/render.hpp"
#include "core/study.hpp"
#include "dissect/dissector.hpp"
#include "media/encoder.hpp"
#include "pcap/sniffer.hpp"
#include "players/server.hpp"
#include "recorded.hpp"
#include "spans.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/ns_trace.hpp"
#include "trackers/tracker.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

using namespace streamlab;

// ---- result digests --------------------------------------------------------

void digest_clip(Digest& d, const ClipRunResult& r) {
  d.str(r.clip.id());
  const TrackerReport& t = r.tracker;
  d.str(t.clip_id).u64(static_cast<std::uint64_t>(t.player)).str(t.transport);
  d.i64(t.encoded_rate.bits_per_second()).i64(t.clip_length.ns());
  for (const TrackerSample& s : t.samples) {
    d.i64(s.time.ns()).f64(s.frame_rate_fps).i64(s.playback_bandwidth.bits_per_second());
    d.u64(s.packets_received).u64(s.packets_lost).u64(s.packets_recovered).u64(s.buffering);
  }
  d.i64(t.average_playback_bandwidth.bits_per_second()).f64(t.average_frame_rate);
  d.u64(t.total_packets).u64(t.total_lost).u64(t.total_recovered);
  d.u64(t.frames_rendered).u64(t.frames_dropped);
  d.i64(t.startup_delay.ns()).i64(t.streaming_duration.ns());
  for (const FlowPacket& p : r.flow.packets()) {
    d.i64(p.time.ns()).u64(p.wire_length).u64(p.trailing_fragment);
    d.u64(p.first_of_group).u64(p.ip_id);
  }
  const BufferingAnalysis& b = r.buffering;
  d.u64(b.has_buffering_phase).i64(b.buffering_duration.ns());
  d.f64(b.buffering_rate_kbps).f64(b.steady_rate_kbps);
  for (const PacketEvent& e : r.app_packets) {
    d.i64(e.network_time.ns()).i64(e.app_time.ns()).u64(e.seq);
    d.u64(e.media_offset).u64(e.media_len).u64(e.flags);
  }
  d.i64(r.server_streaming_duration.ns());
}

std::uint64_t pair_digest(const PairRunResult& p) {
  Digest d;
  digest_clip(d, p.real);
  digest_clip(d, p.media);
  d.i64(p.ping.sent).i64(p.ping.received).i64(p.ping.unreachable);
  for (const Duration rtt : p.ping.rtts) d.i64(rtt.ns());
  for (const TracerouteHop& h : p.route.hops)
    d.i64(h.ttl).u64(h.address ? h.address->value() + 1ull : 0).i64(h.rtt.ns());
  d.u64(p.route.reached);
  return d.value();
}

// ---- the rebuilt clip-pair pipeline (mirrors core/experiment.cpp) ---------

struct Session {
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<StreamClient> client;
  std::unique_ptr<PlayerTracker> tracker;
};

Session make_session(Host& server_host, Host& client_host, const ClipInfo& clip,
                     const ExperimentConfig& config) {
  Session s;
  const EncodedClip encoded = encode_clip(clip, config.seed);
  const bool is_media = clip.player == PlayerKind::kMediaPlayer;
  const std::uint16_t port = is_media ? kMediaServerPort : kRealServerPort;
  if (is_media) {
    s.server = std::make_unique<WmServer>(server_host, encoded, config.wm, port);
  } else {
    s.server = std::make_unique<RmServer>(server_host, encoded, config.rm, port,
                                          config.seed ^ 0x524D);
  }
  StreamClient::Config cc;
  cc.kind = clip.player;
  cc.wm = config.wm;
  cc.rm = config.rm;
  s.client = std::make_unique<StreamClient>(
      client_host, s.server->clip(), Endpoint{server_host.address(), port}, cc);
  s.tracker = std::make_unique<PlayerTracker>(*s.client);
  return s;
}

ClipRunResult collect(const ClipInfo& clip, const Session& session,
                      const std::vector<DissectedPacket>& dissected, Ipv4Address server,
                      const ExperimentConfig& config) {
  ClipRunResult r;
  r.clip = clip;
  r.tracker = session.tracker->report();
  const std::uint16_t client_port =
      clip.player == PlayerKind::kMediaPlayer ? kMediaClientPort : kRealClientPort;
  r.flow = FlowTrace::extract(dissected, server, client_port);
  r.buffering = analyze_buffering(r.flow.bandwidth_timeline(config.bandwidth_window),
                                  config.bandwidth_window);
  r.app_packets = session.client->packets();
  r.server_streaming_duration = session.server->streaming_duration();
  return r;
}

constexpr obs::EventCategory kCategories[] = {
    obs::EventCategory::kLink, obs::EventCategory::kPlayout, obs::EventCategory::kControl,
    obs::EventCategory::kFault, obs::EventCategory::kTimer};

/// Work counted inside the traced study, summed over its clip pairs.
struct StudyCounters {
  std::uint64_t events = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t frames = 0;
  std::uint64_t capture_bytes = 0;
  std::uint64_t dissect_allocs = 0;
  std::map<std::string, std::uint64_t> by_category;
};

PairRunResult traced_clip_pair(const ClipSet& set, RateTier tier,
                               const ExperimentConfig& config, SpanRecorder& spans,
                               StudyCounters& counters) {
  const SpanRecorder::Scope pair_span(spans, "core.clip_pair");
  const auto [real_clip, media_clip] = *set.pair(tier);
  PathConfig path = config.path;
  path.seed = config.seed;
  PairRunResult result;
  int teardown = -1;  // opened as the last statement of the block below
  {
    // Metrics only: the per-category event counts, no trace ring.
    obs::Obs::Config obs_config;
    obs_config.tracing = false;
    obs::Obs obs(obs_config);

    int span = spans.begin("sim.build");
    Network net(path);
    net.attach_observer(obs);
    Host& real_host = net.add_server("real-server");
    Host& media_host = net.add_server("media-server");
    spans.end(span);

    span = spans.begin("sim.probe");
    result.ping = run_ping(net, real_host.address(), /*count=*/10);
    result.route = run_traceroute(net, real_host.address());
    spans.end(span);

    span = spans.begin("players.setup");
    Session real_session = make_session(real_host, net.client(), real_clip, config);
    Session media_session = make_session(media_host, net.client(), media_clip, config);
    spans.end(span);

    span = spans.begin("pcap.attach");
    Sniffer::Options sniff_opts;
    sniff_opts.snaplen = config.snaplen;
    sniff_opts.capture_outbound = false;
    Sniffer sniffer(net.client(), sniff_opts);
    spans.end(span);

    span = spans.begin("players.setup");
    real_session.client->start();
    media_session.client->start();
    real_session.tracker->start();
    media_session.tracker->start();
    spans.end(span);

    {
      const SpanRecorder::Scope run_span(spans, "sim.run");
      const AllocScope allocs;
      const std::uint64_t before = net.loop().executed_events();
      const Duration longest = std::max(real_clip.length, media_clip.length);
      net.loop().run_until(net.loop().now() + longest + config.extra_sim_time);
      counters.events += net.loop().executed_events() - before;
      counters.run_allocs += allocs.delta().calls;
    }
    for (const auto& [name, value] : obs.registry().counters()) {
      for (const obs::EventCategory c : kCategories)
        if (name == std::string("loop.fired.") + obs::to_string(c))
          counters.by_category[obs::to_string(c)] += value;
    }

    std::vector<DissectedPacket> dissected;
    {
      const SpanRecorder::Scope dissect_span(spans, "dissect");
      const AllocScope allocs;
      dissected = dissect_trace(sniffer.trace());
      counters.dissect_allocs += allocs.delta().calls;
    }
    counters.frames += sniffer.trace().size();
    counters.capture_bytes += sniffer.trace().total_bytes();

    {
      const SpanRecorder::Scope flow_span(spans, "analysis.flow");
      result.real = collect(real_clip, real_session, dissected, real_host.address(), config);
      result.media = collect(media_clip, media_session, dissected, media_host.address(), config);
    }
    // Destroying the network, sessions, capture and dissection is work too.
    teardown = spans.begin("core.teardown");
  }
  spans.end(teardown);
  return result;
}

/// run_full_study, rebuilt from traced_clip_pair (mirrors core/study.cpp).
StudyResults traced_study(const StudyConfig& config, SpanRecorder& spans,
                          StudyCounters& counters) {
  const SpanRecorder::Scope study_span(spans, "core.study");
  StudyResults results;
  results.config = config;
  for (const ClipSet& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh}) {
      if (!set.pair(tier)) continue;
      ExperimentConfig ec;
      ec.path = path_for_data_set(set.id, config.seed);
      ec.seed = config.seed ^ (static_cast<std::uint64_t>(set.id) << 8) ^
                static_cast<std::uint64_t>(tier);
      ec.wm = config.wm;
      ec.rm = config.rm;
      ec.bandwidth_window = config.bandwidth_window;
      results.runs.push_back(traced_clip_pair(set, tier, ec, spans, counters));
    }
  }
  return results;
}

// ---- Table 1, Figures 1-15 ------------------------------------------------

const ClipRunResult& find_run(const StudyResults& study, const std::string& id) {
  for (const ClipRunResult* c : study.clips())
    if (c->clip.id() == id) return *c;
  throw std::runtime_error("clip " + id + " missing from the study");
}

const char* player_name(PlayerKind p) {
  return p == PlayerKind::kRealPlayer ? "Real" : "Media";
}

render::Series series_of(const std::string& name, char glyph,
                         const std::vector<std::pair<double, double>>& points) {
  return render::Series{name, glyph, points};
}

template <typename Pairs>
std::vector<std::pair<double, double>> as_xy(const Pairs& pairs) {
  std::vector<std::pair<double, double>> out;
  for (const auto& [x, y] : pairs) out.emplace_back(static_cast<double>(x), static_cast<double>(y));
  return out;
}

std::string pdf_of(const std::vector<double>& values, double bin, const std::string& label) {
  streamlab::Histogram h(bin);
  h.add_all(values);
  return render::pdf_listing(h, label);
}

std::string framerate_section(const std::vector<figures::FrameRatePoint>& points) {
  std::vector<std::vector<std::string>> rows;
  render::Series real{"RealPlayer", 'R', {}}, media{"MediaPlayer", 'M', {}};
  for (const auto& p : points) {
    rows.push_back({player_name(p.player), to_string(p.tier), fmt_double(p.x, 1),
                    fmt_double(p.fps, 1)});
    (p.player == PlayerKind::kRealPlayer ? real : media).points.emplace_back(p.x, p.fps);
  }
  std::string out = render::table({"Player", "Tier", "x Kbps", "fps"}, rows);
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer})
    for (const auto& t : figures::summarize_by_tier(points, player))
      out += to_string(t.tier) + " " + fmt_double(t.mean_x, 1) + " " +
             fmt_double(t.mean_fps, 1) + " " + fmt_double(t.stderr_fps, 2) + "\n";
  return out + render::xy_plot({real, media}, 72, 16);
}

/// Every table and figure of the paper, rendered as the benches print them.
std::string render_paper(const StudyResults& study) {
  std::string out;

  // Table 1.
  std::vector<std::vector<std::string>> rows;
  for (const ClipSet& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kVeryHigh, RateTier::kHigh, RateTier::kLow}) {
      const auto pair = set.pair(tier);
      if (!pair) continue;
      rows.push_back({std::to_string(set.id),
                      fmt_double(pair->first.encoded_rate.to_kbps(), 1),
                      fmt_double(pair->second.encoded_rate.to_kbps(), 1),
                      fmt_double(find_run(study, pair->first.id())
                                     .tracker.average_playback_bandwidth.to_kbps(), 1),
                      fmt_double(find_run(study, pair->second.id())
                                     .tracker.average_playback_bandwidth.to_kbps(), 1)});
    }
  }
  out += render::table({"Set", "R Kbps", "M Kbps", "R playback", "M playback"}, rows);

  // Figures 1-2: path characterisation.
  const auto rtts = figures::rtt_samples_ms(study);
  out += render::cdf_listing(rtts, "RTT (ms)", 11);
  render::Series rtt_cdf{"RTT CDF", '*', {}};
  for (const auto& p : empirical_cdf(rtts)) rtt_cdf.points.emplace_back(p.x, p.p);
  out += render::xy_plot({rtt_cdf}, 72, 16);
  out += render::cdf_listing(figures::hop_counts(study), "hops", 6);

  // Figure 3: playback vs encoding rate with trends.
  render::Series real{"RealPlayer", 'R', {}}, media{"MediaPlayer", 'M', {}};
  for (const auto& p : figures::playback_vs_encoding(study))
    (p.player == PlayerKind::kRealPlayer ? real : media)
        .points.emplace_back(p.encoding_kbps, p.playback_kbps);
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const PolyFit fit = figures::playback_trend(study, player);
    for (const double c : fit.coefficients) out += fmt_double(c, 6) + " ";
    out += fmt_double(fit.r_squared, 6) + "\n";
  }
  out += render::xy_plot({real, media}, 72, 18);

  // Figure 4: arrivals in one second of the data set 5 high pair.
  out += render::xy_plot(
      {series_of("RealPlayer", 'R',
                 as_xy(figures::arrival_window(find_run(study, "set5/R-h"),
                                               Duration::seconds(30), Duration::seconds(1)))),
       series_of("MediaPlayer", 'M',
                 as_xy(figures::arrival_window(find_run(study, "set5/M-h"),
                                               Duration::seconds(30), Duration::seconds(1))))},
      72, 18);

  // Figure 5: fragmentation vs rate.
  render::Series frag{"MediaPlayer frag %", 'M', {}};
  for (const auto& p : figures::fragmentation_vs_rate(study))
    if (p.player == PlayerKind::kMediaPlayer)
      frag.points.emplace_back(p.encoded_kbps, p.fragment_percent);
  out += render::xy_plot({frag}, 72, 16);

  // Figures 6-9: packet size and interarrival distributions.
  for (const char* id : {"set1/R-l", "set1/M-l"}) {
    out += render::pdf_listing(figures::packet_size_pdf(find_run(study, id), 50.0), "size (B)");
    out += pdf_of(figures::clip_interarrivals(find_run(study, id)), 0.01, "gap (s)");
  }
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    out += pdf_of(figures::normalized_packet_sizes(study, player), 0.1, "size/mean");
    const auto gaps = figures::normalized_interarrivals(study, player);
    out += render::cdf_listing(gaps, "gap/mean", 11);
    render::Series cdf{to_string(player), 'x', {}};
    for (const auto& p : cdf_at_quantiles(gaps, 40)) cdf.points.emplace_back(p.x, p.p);
    out += render::xy_plot({cdf}, 72, 16);
  }

  // Figure 10: bandwidth vs time, data set 1.
  std::vector<render::Series> bandwidth;
  for (const char* id : {"set1/R-h", "set1/R-l", "set1/M-h", "set1/M-l"})
    bandwidth.push_back(series_of(
        id, 'A', figures::bandwidth_timeline(find_run(study, id), Duration::seconds(5))));
  out += render::xy_plot(bandwidth, 76, 20);

  // Figure 11: buffering ratio vs encoding rate.
  render::Series ratio{"RealPlayer ratio", 'R', {}};
  for (const auto& p : figures::buffering_ratio_vs_rate(study))
    ratio.points.emplace_back(p.encoding_kbps, p.ratio);
  out += render::xy_plot({ratio}, 72, 14);

  // Figure 12: network vs application layer receipt.
  const auto layers = figures::layer_receipt_series(find_run(study, "set5/M-h"),
                                                    Duration::seconds(32), Duration::seconds(4));
  out += render::xy_plot({series_of("network", 'n', as_xy(layers.network)),
                          series_of("application", 'A', as_xy(layers.application))},
                         72, 18);

  // Figures 13-15: frame rate.
  std::vector<render::Series> framerate;
  for (const char* id : {"set5/R-h", "set5/R-l", "set5/M-h", "set5/M-l"})
    framerate.push_back(series_of(id, 'A', figures::framerate_timeline(find_run(study, id))));
  out += render::xy_plot(framerate, 76, 18);
  out += framerate_section(figures::framerate_vs_encoding(study));
  out += framerate_section(figures::framerate_vs_bandwidth(study));
  return out;
}

// ---- Section IV and the extensions -----------------------------------------

void section_iv(const StudyResults& study, Digest& d) {
  const FlowModel model = FlowModel::fit(study);
  SyntheticFlowGenerator generator(model, /*seed=*/7);
  for (const ClipInfo& clip : all_clips()) {
    const SyntheticFlow flow = generator.generate(clip);
    const SyntheticValidation v = validate_against_model(flow, model);
    d.u64(flow.packets.size()).f64(flow.mean_rate_kbps()).f64(flow.fragment_fraction());
    d.f64(flow.rtt_ms).f64(v.size_ks).f64(v.interval_ks).f64(v.rate_relative_error);
  }
  std::ostringstream ns;
  write_ns_trace(ns, generator.generate(*find_clip("set1/M-h")), /*flow_id=*/1);
  d.str(ns.str());
}

ClipInfo friendliness_clip(PlayerKind player, double kbps) {
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

// The extension experiments, with the bench mains' inputs.

constexpr const char* kSweepClips[] = {"set1/R-h", "set1/M-h"};

void sweep(const char* clip_id, Digest& d) {
  CongestionConfig config;
  config.seed = 3;
  for (const CongestionResult& r :
       sweep_bottleneck(*find_clip(clip_id), {150, 200, 250, 300, 400, 600, 1000}, config)) {
    d.f64(r.offered_load).f64(r.packet_loss).f64(r.throughput_kbps);
    d.f64(r.goodput_kbps).f64(r.wasted_kbps).f64(r.reception_quality);
  }
}

void aggregate(Digest& d) {
  AggregateConfig config;
  config.clip_ids = {"set1/R-h", "set1/M-h", "set5/R-l", "set5/M-l"};
  config.path = path_for_data_set(3, 77);
  config.path.bottleneck_bandwidth = BitRate::mbps(4);
  config.seed = 9;
  const AggregateResult r = run_aggregate_experiment(config);
  for (const auto& s : r.sessions) d.u64(s.packets).f64(s.mean_rate_kbps).f64(s.frame_rate);
  d.u64(r.total_packets).f64(r.aggregate_mean_kbps).f64(r.aggregate_peak_kbps);
  d.f64(r.interarrival_cv);
}

constexpr PlayerKind kFriendlinessPlayers[] = {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer};
constexpr double kFriendlinessKbps[] = {100.0, 200.0, 300.0, 350.0};

void friendliness(PlayerKind player, double kbps, Digest& d) {
  FriendlinessConfig config;
  config.bottleneck = BitRate::kbps(400);
  config.seed = 5;
  const auto r = run_friendliness_experiment(friendliness_clip(player, kbps), config);
  d.f64(r.media_share_kbps).f64(r.tcp_share_kbps).f64(r.media_loss);
  d.u64(r.tcp_retransmissions);
}

// ---- one regeneration ------------------------------------------------------

struct Regeneration {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> pairs;
  /// Wall seconds of each section, in a fixed order: the study (one per
  /// data set untraced, one in all traced), figures, §IV, each sweep clip,
  /// aggregate, each friendliness run.
  std::vector<double> section_s;
};

/// Regenerates the paper. With an enabled recorder the study runs through
/// the rebuilt, traced pipeline and `counters` collects its work counts.
Regeneration regenerate(std::uint64_t seed, SpanRecorder& spans, StudyCounters& counters) {
  const SpanRecorder::Scope root(spans, "paper");
  Regeneration out;
  Digest d;
  const auto timed = [&](auto&& body) {
    const auto start = Clock::now();
    body();
    out.section_s.push_back(seconds_since(start));
  };
  const auto section = [&](const char* name, auto&& body) {
    const SpanRecorder::Scope span(spans, name);
    timed(body);
  };

  StudyConfig config;
  config.seed = seed;
  StudyResults study;
  if (spans.enabled()) {
    timed([&] { study = traced_study(config, spans, counters); });
  } else {
    // run_full_study is run_study_subset over data sets 1-6; calling it per
    // data set gives the same results and makes each set a section.
    study.config = config;
    for (int set = 1; set <= 6; ++set)
      timed([&] {
        StudyResults part = run_study_subset(config, {set});
        for (PairRunResult& run : part.runs) study.runs.push_back(std::move(run));
      });
  }
  for (const PairRunResult& run : study.runs) {
    out.pairs.push_back(pair_digest(run));
    d.u64(out.pairs.back());
  }

  section("core.figures", [&] { d.str(render_paper(study)); });
  section("tracegen", [&] { section_iv(study, d); });
  for (const char* clip_id : kSweepClips)
    section("congestion.sweep", [&] { sweep(clip_id, d); });
  section("core.aggregate", [&] { aggregate(d); });
  for (const PlayerKind player : kFriendlinessPlayers)
    for (const double kbps : kFriendlinessKbps)
      section("congestion.friendliness", [&] { friendliness(player, kbps, d); });
  out.digest = d.value();
  return out;
}

/// Seconds per regeneration: the sum over sections of each section's
/// fastest time across iterations (`fastest` in stats.hpp says why the
/// fastest). Sections are kept short (at most ~0.8 s, data set 6) so that
/// each finds its own full-speed moment, which a whole regeneration,
/// several seconds long, rarely has.
double regeneration_seconds(const std::vector<Regeneration>& runs) {
  double total = 0.0;
  for (std::size_t s = 0; s < runs.front().section_s.size(); ++s) {
    std::vector<double> times;
    for (const Regeneration& r : runs) times.push_back(r.section_s[s]);
    total += fastest(times);
  }
  return total;
}

/// Per-layer numbers of one traced regeneration.
std::map<std::string, double> layer_metrics(const std::vector<Span>& spans,
                                            const StudyCounters& c, Checks& checks) {
  std::map<std::string, double> m;
  const auto total = total_ms_by_name(spans);
  const auto self = self_ms_by_name(spans);
  const auto get = [](const std::map<std::string, double>& map, const char* key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  const double events = static_cast<double>(c.events);
  const double frames = static_cast<double>(c.frames);
  const double study_ms = get(total, "core.study");

  m["sim.probe_ms"] = get(total, "sim.probe");
  m["sim.run_ms"] = get(total, "sim.run");
  m["sim.events"] = events;
  m["sim.ns_per_event"] = events > 0 ? get(total, "sim.run") * 1e6 / events : 0.0;
  m["sim.allocs_per_event"] = events > 0 ? static_cast<double>(c.run_allocs) / events : 0.0;
  for (const auto& [category, n] : c.by_category)
    m["sim.events." + category] = static_cast<double>(n);
  m["pcap.frames"] = frames;
  m["pcap.bytes"] = static_cast<double>(c.capture_bytes);
  m["dissect.ms"] = get(total, "dissect");
  m["dissect.ns_per_pkt"] = frames > 0 ? get(total, "dissect") * 1e6 / frames : 0.0;
  m["dissect.allocs_per_pkt"] = frames > 0 ? static_cast<double>(c.dissect_allocs) / frames : 0.0;
  m["analysis.flow_ms"] = get(total, "analysis.flow");
  m["players.setup_ms"] = get(total, "players.setup");
  m["core.figures_ms"] = get(total, "core.figures");
  m["tracegen.ms"] = get(total, "tracegen");
  m["congestion.ms"] = get(total, "congestion.sweep") + get(total, "congestion.friendliness");
  m["core.aggregate_ms"] = get(total, "core.aggregate");
  m["core.study_ms"] = study_ms;
  m["core.teardown_ms"] = get(total, "core.teardown");
  const auto pairs = durations_ms(spans, "core.clip_pair");
  m["core.clip_pair_ms_p50"] = median(pairs);
  m["core.clip_pair_ms_max"] = pairs.empty() ? 0.0 : *std::max_element(pairs.begin(), pairs.end());

  // What no stage span covers: the self time of the study and of each clip
  // pair, between its stages.
  const double unaccounted =
      study_ms > 0 ? 100.0 * (get(self, "core.study") + get(self, "core.clip_pair")) / study_ms
                   : 0.0;
  m["core.study_unaccounted_pct"] = unaccounted;
  checks.expect(unaccounted < 5.0, "paper: more than 5% of the study span is unaccounted");
  if (study_ms > 0) {
    m["share.sim_pct"] = 100.0 *
                         (get(self, "sim.build") + get(self, "sim.probe") + get(self, "sim.run")) /
                         study_ms;
    m["share.dissect_pct"] = 100.0 * get(self, "dissect") / study_ms;
    m["share.flow_pct"] = 100.0 * get(self, "analysis.flow") / study_ms;
  }
  return m;
}

}  // namespace

Report run_paper(const RunOptions& options) {
  Report report;
  const bool default_seed = options.seed == recorded::kPaperSeed;
  report.info = {{"clip_pairs", "13"}, {"clips", "26"}, {"figures", "15"},
                  {"friendliness_runs", "8"}, {"sweep_points", "14"}};

  // Set-up: encode every catalog clip from the seed, then one warm-up clip
  // pair, so lazy statics and allocator pools are filled before timing.
  SetupTimer setup([&] {
    std::uint64_t frames = 0;
    for (const ClipInfo& clip : all_clips())
      frames += encode_clip(clip, options.seed).frames().size();
    ExperimentConfig ec;
    ec.path = path_for_data_set(1, options.seed);
    ec.seed = options.seed;
    const PairRunResult warm = run_clip_pair(table1_catalog()[0], RateTier::kLow, ec);
    report.checks.expect(frames > 0 && !warm.real.flow.empty(), "paper: set-up produced no input");
  });
  setup.repeat(3);

  SpanRecorder untraced(false);
  StudyCounters unused;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> times_s;
  std::vector<Regeneration> runs;
  const auto start = Clock::now();
  while (runs.size() < 2 || seconds_since(start) < budget) {
    const auto t0 = Clock::now();
    runs.push_back(regenerate(options.seed, untraced, unused));
    times_s.push_back(seconds_since(t0));
    const Regeneration& run = runs.back();
    report.checks.expect(run.digest == runs.front().digest,
                         "paper: regeneration " + std::to_string(runs.size()) +
                             " differs from the first (digest " + hex64(run.digest) + ")");
    if (default_seed)
      report.checks.expect(run.digest == recorded::kPaperDigest,
                           "paper: digest " + hex64(run.digest) + " != recorded " +
                               hex64(recorded::kPaperDigest));
    setup.between_operations(/*interval_s=*/1.0);
  }
  report.setup_s = setup.median_s();
  report.info.push_back({"setup_repeats", std::to_string(setup.repeats())});
  const Regeneration& first = runs.front();
  const double paper_s = regeneration_seconds(runs);
  report.ops_per_s = 1.0 / paper_s;
  report.figures.push_back({"paper_s", paper_s, "s", "(sum of section minima; whole regenerations " +
                                                       timing_figure("", times_s, "s").note + ")"});
  report.info.push_back({"regenerations", std::to_string(runs.size())});
  report.info.push_back({"paper_digest", hex64(first.digest)});
  if (!options.trace) return report;

  SpanRecorder spans(true);
  std::vector<Regeneration> traced;
  std::vector<std::map<std::string, double>> per_iteration;
  const auto traced_start = Clock::now();
  while (traced.empty() || seconds_since(traced_start) < options.seconds / 2) {
    const std::size_t first_span = spans.size();
    StudyCounters counters;
    traced.push_back(regenerate(options.seed, spans, counters));
    const Regeneration& run = traced.back();
    report.checks.expect(run.pairs == first.pairs,
                         "paper: the rebuilt clip-pair pipeline differs from run_full_study");
    report.checks.expect(run.digest == first.digest, "paper: traced regeneration differs");
    per_iteration.push_back(layer_metrics(spans.spans_since(first_span), counters,
                                          report.checks));
  }
  for (const auto& [name, _] : per_iteration.front()) {
    std::vector<double> values;
    for (const auto& m : per_iteration) values.push_back(m.at(name));
    report.layers[name] = median(values);
  }
  report.layers["trace_overhead_pct"] = overhead_pct(regeneration_seconds(traced), paper_s);
  report.figures.push_back({"trace_overhead_pct", report.layers["trace_overhead_pct"], "%", ""});
  char shares[128];
  std::snprintf(shares, sizeof shares, "sim %.1f / dissect %.1f / flow %.1f, teardown %.1f",
                report.layers["share.sim_pct"], report.layers["share.dissect_pct"],
                report.layers["share.flow_pct"],
                100.0 * report.layers["core.teardown_ms"] / report.layers["core.study_ms"]);
  report.figures.push_back({"study_shares_pct", report.layers["share.sim_pct"], "%",
                            std::string(shares) + " (ROADMAP estimate 75 / 19 / 6)"});
  spans.write_chrome_trace(options.out_dir + "/trace-paper.json");
  return report;
}

}  // namespace e2ebench
