#include "core/export.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "util/strings.hpp"

namespace streamlab {
namespace {

using R = SessionRecoveryMetrics;

std::string player_tag(PlayerKind player) {
  return player == PlayerKind::kRealPlayer ? "real" : "media";
}

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
