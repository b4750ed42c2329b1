#include "analysis/flow.hpp"

#include <algorithm>

namespace streamlab {

FlowTrace FlowTrace::extract(const std::vector<DissectedPacket>& packets, Ipv4Address src,
                             std::optional<std::uint16_t> dst_port) {
  FlowTrace out;
  for (const auto& p : packets) out.add(p, src, dst_port);
  return out;
}

void FlowTrace::add(const DissectedPacket& p, Ipv4Address src,
                    std::optional<std::uint16_t> dst_port) {
  using enum FieldId;
  if (!p.has(kIpSrc) || p.number(kIpSrc) != static_cast<std::int64_t>(src.value())) return;
  if (!p.has(kIpProto) || p.number(kIpProto) != 17) return;

  const bool trailing = p.number(kIpFragOffset) > 0;
  if (!trailing && dst_port) {
    if (!p.has(kUdpDstPort) || p.number(kUdpDstPort) != *dst_port) return;
  }
  // Trailing fragments are accepted on source+protocol alone: their IP id
  // ties them to the preceding first fragment of the same datagram.
  FlowPacket fp;
  fp.time = p.timestamp;
  fp.wire_length = static_cast<std::uint32_t>(p.frame_length);
  fp.trailing_fragment = trailing;
  fp.first_of_group = !trailing;
  fp.ip_id = static_cast<std::uint16_t>(p.number(kIpId));
  packets_.push_back(fp);
}

std::size_t FlowTrace::fragment_count() const {
  return static_cast<std::size_t>(
      std::count_if(packets_.begin(), packets_.end(),
                    [](const FlowPacket& p) { return p.trailing_fragment; }));
}

double FlowTrace::fragment_fraction() const {
  if (packets_.empty()) return 0.0;
  return static_cast<double>(fragment_count()) / static_cast<double>(packets_.size());
}

std::vector<double> FlowTrace::packet_sizes(bool include_fragments) const {
  std::vector<double> out;
  out.reserve(packets_.size());
  for (const auto& p : packets_) {
    if (!include_fragments && p.trailing_fragment) continue;
    out.push_back(static_cast<double>(p.wire_length));
  }
  return out;
}

std::vector<double> FlowTrace::interarrivals(bool groups_only) const {
  std::vector<double> out;
  std::optional<SimTime> prev;
  for (const auto& p : packets_) {
    if (groups_only && !p.first_of_group) continue;
    if (prev) out.push_back((p.time - *prev).to_seconds());
    prev = p.time;
  }
  return out;
}

std::vector<std::pair<double, std::uint32_t>> FlowTrace::arrival_sequence() const {
  std::vector<std::pair<double, std::uint32_t>> out;
  out.reserve(packets_.size());
  std::uint32_t index = 0;
  for (const auto& p : packets_) out.emplace_back(p.time.to_seconds(), index++);
  return out;
}

std::vector<std::pair<double, double>> FlowTrace::bandwidth_timeline(Duration window) const {
  std::vector<std::pair<double, double>> out;
  if (packets_.empty() || window <= Duration::zero()) return out;
  const SimTime start = packets_.front().time;
  const double win_secs = window.to_seconds();

  std::size_t i = 0;
  for (SimTime w = start; i < packets_.size(); w += window) {
    const SimTime end = w + window;
    std::uint64_t bytes = 0;
    while (i < packets_.size() && packets_[i].time < end) {
      bytes += packets_[i].wire_length;
      ++i;
    }
    out.emplace_back((w - start).to_seconds(),
                     static_cast<double>(bytes) * 8.0 / win_secs / 1000.0);
  }
  return out;
}

std::uint64_t FlowTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : packets_) total += p.wire_length;
  return total;
}

Duration FlowTrace::duration() const {
  if (packets_.size() < 2) return Duration::zero();
  return packets_.back().time - packets_.front().time;
}

double FlowTrace::mean_rate_kbps() const {
  const double secs = duration().to_seconds();
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(total_bytes()) * 8.0 / secs / 1000.0;
}

}  // namespace streamlab
