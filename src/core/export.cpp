#include "core/export.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/figures.hpp"
#include "util/strings.hpp"

namespace streamlab {
namespace {

std::string player_tag(PlayerKind player) {
  return player == PlayerKind::kRealPlayer ? "real" : "media";
}

void values_csv(const char* header, const std::vector<double>& values, std::ostream& out) {
  out << header << "\n";
  for (const double v : values) out << fmt_double(v, 6) << "\n";
}

}  // namespace

void study_results_csv(const StudyResults& study, std::ostream& out) {
  out << "clip_id,player,tier,encoding_kbps,playback_kbps,frame_rate_fps,fragment_pct,"
         "buffering_ratio,streaming_s,packets,lost,quality_pct\n";
  for (const auto* c : study.clips()) {
    out << c->clip.id() << "," << player_tag(c->clip.player) << ","
        << to_string(c->clip.tier) << "," << fmt_double(c->clip.encoded_rate.to_kbps(), 1)
        << "," << fmt_double(c->tracker.average_playback_bandwidth.to_kbps(), 1) << ","
        << fmt_double(c->tracker.average_frame_rate, 2) << ","
        << fmt_double(100.0 * c->flow.fragment_fraction(), 2) << ","
        << fmt_double(c->buffering.ratio(), 3) << ","
        << fmt_double(c->server_streaming_duration.to_seconds(), 1) << ","
        << c->tracker.total_packets << "," << c->tracker.total_lost << ","
        << fmt_double(c->tracker.reception_quality(), 2) << "\n";
  }
}

std::string study_results_csv(const StudyResults& study) {
  std::ostringstream out;
  study_results_csv(study, out);
  return out.str();
}

void figure_csv(const StudyResults& study, const std::string& figure, std::ostream& out) {
  if (figure == "fig01") return values_csv("rtt_ms", figures::rtt_samples_ms(study), out);
  if (figure == "fig02") return values_csv("hops", figures::hop_counts(study), out);
  if (figure == "fig03") {
    out << "player,encoding_kbps,playback_kbps\n";
    for (const auto& p : figures::playback_vs_encoding(study))
      out << player_tag(p.player) << "," << fmt_double(p.encoding_kbps, 1) << ","
          << fmt_double(p.playback_kbps, 1) << "\n";
    return;
  }
  if (figure == "fig05") {
    out << "player,encoded_kbps,fragment_pct\n";
    for (const auto& p : figures::fragmentation_vs_rate(study))
      out << player_tag(p.player) << "," << fmt_double(p.encoded_kbps, 1) << ","
          << fmt_double(p.fragment_percent, 2) << "\n";
    return;
  }
  if (figure == "fig07") {
    out << "player,normalized_size\n";
    for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer})
      for (const double v : figures::normalized_packet_sizes(study, player))
        out << player_tag(player) << "," << fmt_double(v, 5) << "\n";
    return;
  }
  if (figure == "fig09") {
    out << "player,normalized_gap\n";
    for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer})
      for (const double v : figures::normalized_interarrivals(study, player))
        out << player_tag(player) << "," << fmt_double(v, 5) << "\n";
    return;
  }
  if (figure == "fig11") {
    out << "encoding_kbps,buffering_ratio\n";
    for (const auto& p : figures::buffering_ratio_vs_rate(study))
      out << fmt_double(p.encoding_kbps, 1) << "," << fmt_double(p.ratio, 3) << "\n";
    return;
  }
  if (figure == "fig14") {
    out << "player,tier,encoding_kbps,fps\n";
    for (const auto& p : figures::framerate_vs_encoding(study))
      out << player_tag(p.player) << "," << to_string(p.tier) << ","
          << fmt_double(p.x, 1) << "," << fmt_double(p.fps, 2) << "\n";
    return;
  }
}

std::string figure_csv(const StudyResults& study, const std::string& figure) {
  std::ostringstream out;
  figure_csv(study, figure, out);
  return out.str();
}

int export_study(const StudyResults& study, const std::string& directory) {
  std::filesystem::create_directories(directory);
  int written = 0;
  const auto write = [&](const std::string& name, auto&& emit) {
    std::ofstream out(directory + "/" + name);
    emit(out);
    // An unknown figure emits nothing: drop the empty file rather than
    // leave a zero-byte artifact behind.
    if (out.tellp() == std::ofstream::pos_type(0)) {
      out.close();
      std::filesystem::remove(directory + "/" + name);
      return;
    }
    if (out) ++written;
  };
  write("study_results.csv", [&](std::ostream& o) { study_results_csv(study, o); });
  for (const char* fig : {"fig01", "fig02", "fig03", "fig05", "fig07", "fig09",
                          "fig11", "fig14"})
    write(std::string(fig) + ".csv",
          [&](std::ostream& o) { figure_csv(study, fig, o); });
  return written;
}

namespace {

using R = SessionRecoveryMetrics;

std::string count(std::uint64_t v) { return std::to_string(v); }
std::string flag(bool v) { return v ? "1" : "0"; }

/// turbulence.csv's columns after `scenario`: the header and every row.
const struct RecoveryColumn {
  const char* name;
  std::string (*cell)(const R&);
} kRecoveryColumns[] = {
    {"clip_id", [](const R& m) { return m.clip.id(); }},
    {"player", [](const R& m) { return player_tag(m.clip.player); }},
    {"established", [](const R& m) { return flag(m.established); }},
    {"play_attempts", [](const R& m) { return count(m.play_attempts); }},
    {"abandoned", [](const R& m) { return flag(m.abandoned); }},
    {"stream_dead", [](const R& m) { return flag(m.stream_dead); }},
    {"completed", [](const R& m) { return flag(m.completed); }},
    {"time_to_recover_s",
     [](const R& m) {
       return m.time_to_recover ? fmt_double(m.time_to_recover->to_seconds(), 3) : "";
     }},
    {"rebuffer_events", [](const R& m) { return count(m.rebuffer_events); }},
    {"stall_s", [](const R& m) { return fmt_double(m.stall_time.to_seconds(), 3); }},
    {"frames_rendered", [](const R& m) { return count(m.frames_rendered); }},
    {"frames_dropped", [](const R& m) { return count(m.frames_dropped); }},
    {"dropped_during", [](const R& m) { return count(m.frames_dropped_during_episodes); }},
    {"dropped_after", [](const R& m) { return count(m.frames_dropped_after_episodes); }},
    {"packets", [](const R& m) { return count(m.packets_received); }},
    {"lost", [](const R& m) { return count(m.packets_lost); }},
    {"duplicates", [](const R& m) { return count(m.duplicate_packets); }},
    {"recovered", [](const R& m) { return count(m.packets_recovered()); }},
    {"recovery_ratio", [](const R& m) { return fmt_double(m.recovery_ratio(), 4); }},
    {"repair_latency_mean_ms", [](const R& m) { return fmt_double(m.repair_latency_mean_ms, 3); }},
    {"repair_overhead", [](const R& m) { return fmt_double(m.repair_overhead(), 4); }},
    {"path_switches", [](const R& m) { return count(m.path_switches); }},
    {"primary_loss", [](const R& m) { return fmt_double(m.subflow[0].loss_ratio(), 4); }},
    {"detour_loss", [](const R& m) { return fmt_double(m.subflow[1].loss_ratio(), 4); }},
    {"primary_goodput_kbps", [](const R& m) { return fmt_double(m.goodput_kbps(0), 1); }},
    {"detour_goodput_kbps", [](const R& m) { return fmt_double(m.goodput_kbps(1), 1); }},
    {"reorder_depth_p95", [](const R& m) { return count(m.reorder_depth_p95); }},
    {"nack_suppressed", [](const R& m) { return count(m.nack_suppressed); }},
};

void append_recovery_row(std::ostream& out, const std::string& scenario, const R& m) {
  out << scenario;
  for (const RecoveryColumn& column : kRecoveryColumns) out << "," << column.cell(m);
  out << "\n";
}

}  // namespace

void turbulence_csv(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                    std::ostream& out) {
  out << "scenario";
  for (const RecoveryColumn& column : kRecoveryColumns) out << "," << column.name;
  out << "\n";
  for (const auto& [scenario, run] : runs) {
    if (run.real) append_recovery_row(out, scenario, *run.real);
    if (run.media) append_recovery_row(out, scenario, *run.media);
  }
}

std::string turbulence_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs) {
  std::ostringstream out;
  turbulence_csv(runs, out);
  return out.str();
}

void turbulence_episodes_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
    std::ostream& out) {
  out << "scenario,kind,label,start_s,duration_s,applied,cleared,packets_dropped\n";
  for (const auto& [scenario, run] : runs) {
    for (const auto& rec : run.episodes) {
      out << scenario << "," << to_string(rec.episode.kind) << "," << rec.episode.label
          << "," << fmt_double(rec.episode.start.to_seconds(), 3) << ","
          << fmt_double(rec.episode.duration.to_seconds(), 3) << ","
          << (rec.applied ? 1 : 0) << "," << (rec.cleared ? 1 : 0) << ","
          << rec.packets_dropped << "\n";
    }
  }
}

std::string turbulence_episodes_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs) {
  std::ostringstream out;
  turbulence_episodes_csv(runs, out);
  return out.str();
}

int export_turbulence(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                      const std::string& directory) {
  std::filesystem::create_directories(directory);
  int written = 0;
  const auto write = [&](const std::string& name, auto&& emit) {
    std::ofstream out(directory + "/" + name);
    emit(out);
    if (out) ++written;
  };
  write("turbulence.csv", [&](std::ostream& o) { turbulence_csv(runs, o); });
  write("turbulence_episodes.csv",
        [&](std::ostream& o) { turbulence_episodes_csv(runs, o); });
  return written;
}

}  // namespace streamlab
