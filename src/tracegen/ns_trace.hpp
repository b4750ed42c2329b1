// ns-style trace output: the paper suggests using its results "to produce
// more realistic video traffic for popular simulators, such as NS". This
// writer emits the classic ns-2 trace line format for packet arrivals:
//
//   r <time> <from> <to> <type> <size> --- <flow-id> ...
#pragma once

#include <iosfwd>
#include <string>

#include "tracegen/generator.hpp"

namespace streamlab {

/// Writes a synthetic flow as ns-2 "r" (receive) events on flow `flow_id`.
bool write_ns_trace(std::ostream& out, const SyntheticFlow& flow, int flow_id = 1);
bool write_ns_trace_file(const std::string& path, const SyntheticFlow& flow,
                         int flow_id = 1);

}  // namespace streamlab
