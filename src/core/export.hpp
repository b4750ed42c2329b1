// CSV export of turbulence runs — the hand-off format for external plotting
// tools. Each table streams its rows straight into a std::ostream, so
// export_turbulence writes its files without building a table in memory.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/turbulence.hpp"

namespace streamlab {

/// Turbulence scenario results, one row per player session per run.
/// Columns: scenario,clip_id,player,established,play_attempts,abandoned,
/// stream_dead,completed,time_to_recover_s,rebuffer_events,stall_s,
/// frames_rendered,frames_dropped,dropped_during,dropped_after,packets,
/// lost,duplicates,recovered,recovery_ratio,repair_latency_mean_ms,
/// repair_overhead,path_switches,primary_loss,detour_loss,
/// primary_goodput_kbps,detour_goodput_kbps,reorder_depth_p95,
/// nack_suppressed
void turbulence_csv(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                    std::ostream& out);

/// Episode ledger across runs. Columns: scenario,kind,label,start_s,
/// duration_s,applied,cleared,packets_dropped
void turbulence_episodes_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
    std::ostream& out);

/// Writes turbulence.csv and turbulence_episodes.csv into `directory`.
/// Returns the number of files written.
int export_turbulence(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                      const std::string& directory);

}  // namespace streamlab
