#include "tracegen/ns_trace.hpp"

#include <fstream>

#include "util/strings.hpp"

namespace streamlab {

bool write_ns_trace(std::ostream& out, const SyntheticFlow& flow, int flow_id) {
  for (const auto& p : flow.packets) {
    // r <time> <from> <to> <type> <size> --- <fid> <src> <dst> <seq> <uid>
    out << "r " << fmt_double(p.time_s, 6) << " 1 0 " << (p.fragment ? "frag" : "udp")
        << " " << p.bytes << " --- " << flow_id << " 1.0 0.0 0 0\n";
  }
  return static_cast<bool>(out);
}

bool write_ns_trace_file(const std::string& path, const SyntheticFlow& flow, int flow_id) {
  std::ofstream out(path);
  return out && write_ns_trace(out, flow, flow_id);
}

}  // namespace streamlab
