// capture_filter: the Ethereal workflow of the paper — capture a streaming
// session at the client NIC, write a standard pcap file, read it back, and
// interrogate it with display filters (fragment isolation, flow selection,
// size cuts).
//
// Usage: capture_filter [clip-id] [display-filter]
//   capture_filter set1/M-h "ip.frag_offset > 0"
// With no filter argument, a tour of useful filters runs.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/study.hpp"
#include "filter/evaluator.hpp"
#include "pcap/pcap_file.hpp"
#include "util/strings.hpp"

using namespace streamlab;

namespace {

void apply_filter(const std::vector<DissectedPacket>& packets, const std::string& expr) {
  const auto compiled = filter::DisplayFilter::compile(expr);
  if (!compiled) {
    std::printf("  filter error: %s\n", compiled.error().c_str());
    return;
  }
  const auto matched = compiled->select(packets);
  std::printf("  %-52s -> %zu/%zu packets\n", expr.c_str(), matched.size(),
              packets.size());
  for (std::size_t i = 0; i < matched.size() && i < 3; ++i)
    std::printf("      %s\n", matched[i]->summary().c_str());
  if (matched.size() > 3) std::printf("      ...\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string clip_id = argc > 1 ? argv[1] : "set1/M-h";
  const auto clip = find_clip(clip_id);
  if (!clip) {
    std::fprintf(stderr, "unknown clip id '%s'\n", clip_id.c_str());
    return 1;
  }

  std::printf("capturing a %s session (%s)...\n", clip_id.c_str(),
              to_string(clip->encoded_rate).c_str());

  ExperimentConfig config;
  config.path = path_for_data_set(clip->data_set, 2002);
  config.seed = 5;
  config.keep_capture = true;
  config.snaplen = 65535;
  const ClipRunResult run = run_single_clip(*clip, config);

  // Write and re-read a real pcap file, as Ethereal would save it. The file
  // goes into the working directory and is named after the clip, so runs on
  // different clips or in different directories never share a file.
  std::string path = "streamlab_" + clip_id + ".pcap";
  std::replace(path.begin(), path.end(), '/', '_');
  if (!run.capture || !write_pcap_file(path, *run.capture)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  const auto loaded = read_pcap_file(path);
  if (!loaded) {
    std::fprintf(stderr, "failed to re-read %s: %s\n", path.c_str(),
                 loaded.error().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu packets, %llu bytes, %s capture\n\n", path.c_str(),
              loaded->size(), static_cast<unsigned long long>(loaded->total_bytes()),
              to_string(loaded->duration()).c_str());

  const auto packets = dissect_trace(*loaded);

  if (argc > 2) {
    apply_filter(packets, argv[2]);
    return 0;
  }

  std::printf("display-filter tour:\n");
  apply_filter(packets, "udp");
  apply_filter(packets, "ip.frag_offset > 0");
  apply_filter(packets, "ip.flags.mf == 1 && ip.frag_offset == 0");
  apply_filter(packets, "frame.len == 1514");
  apply_filter(packets, "frame.len < 600 && udp");
  apply_filter(packets, "udp.port == " + std::to_string(kMediaServerPort));
  apply_filter(packets, "!(ip.fragment == 1)");
  return 0;
}
