// lab_shark: a miniature tshark — reads any libpcap file (including real
// captures of Ethernet/IPv4/UDP traffic), applies an optional display
// filter, and prints per-packet summaries plus the conversation table.
//
// Usage:
//   lab_shark <capture.pcap> [display-filter] [--max N]
//
// Generate an input with the capture_filter example, or feed a capture of
// your own.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "dissect/conversations.hpp"
#include "filter/evaluator.hpp"
#include "pcap/pcap_file.hpp"
#include "util/strings.hpp"

using namespace streamlab;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lab_shark <capture.pcap> [display-filter] [--max N]\n"
                 "example filters: \"udp\", \"ip.frag_offset > 0\", "
                 "\"frame.len == 1514 && udp.port == 1755\"\n");
    return 1;
  }
  const std::string path = argv[1];
  std::string filter_expr;
  std::size_t max_rows = 20;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      if (const auto [ptr, ec] = std::from_chars(text, end, max_rows);
          ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "--max needs a whole number of rows, got '%s'\n", text);
        return 1;
      }
    } else {
      filter_expr = argv[i];
    }
  }

  // Compile the filter first: a typo fails before the capture is read.
  std::optional<filter::DisplayFilter> filter;
  if (!filter_expr.empty()) {
    auto compiled = filter::DisplayFilter::compile(filter_expr);
    if (!compiled) {
      std::fprintf(stderr, "filter error: %s\n", compiled.error().c_str());
      return 1;
    }
    filter = std::move(*compiled);
  }

  const auto trace = read_pcap_file(path);
  if (!trace) {
    std::fprintf(stderr, "error: %s\n", trace.error().c_str());
    return 1;
  }
  std::printf("%s: %zu packets, %llu bytes, %s\n\n", path.c_str(), trace->size(),
              static_cast<unsigned long long>(trace->total_bytes()),
              to_string(trace->duration()).c_str());

  const auto packets = dissect_trace(*trace);

  std::vector<const DissectedPacket*> selected;
  if (filter) {
    selected = filter->select(packets);
    std::printf("filter \"%s\": %zu/%zu packets match\n\n", filter_expr.c_str(),
                selected.size(), packets.size());
  } else {
    for (const auto& p : packets) selected.push_back(&p);
  }

  for (std::size_t i = 0; i < selected.size() && i < max_rows; ++i)
    std::printf("%6zu  %s\n", i + 1, selected[i]->summary().c_str());
  if (selected.size() > max_rows)
    std::printf("        ... %zu more (use --max to show)\n", selected.size() - max_rows);

  // Conversation table over the whole capture (Ethereal's Conversations).
  ConversationTable table;
  table.add_all(packets);
  std::printf("\nconversations (%zu):\n", table.size());
  for (const auto& conv : table.by_bytes()) {
    std::printf("  %-55s %6llu pkts  %9llu B  %8s Kbps  %llu frags\n",
                conv.label().c_str(),
                static_cast<unsigned long long>(conv.total_packets()),
                static_cast<unsigned long long>(conv.total_bytes()),
                fmt_double(conv.mean_rate_kbps(), 1).c_str(),
                static_cast<unsigned long long>(conv.fragments));
  }
  if (table.unattributed_packets() > 0)
    std::printf("  (%llu packets unattributed)\n",
                static_cast<unsigned long long>(table.unattributed_packets()));
  return 0;
}
