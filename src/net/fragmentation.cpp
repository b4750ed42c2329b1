#include "net/fragmentation.hpp"

#include <algorithm>
#include <cstring>

namespace streamlab {

std::vector<Ipv4Packet> fragment_packet(const Ipv4Packet& packet, std::size_t mtu) {
  if (packet.total_length() <= mtu) return {packet};
  if (packet.header.dont_fragment) return {};

  // Largest 8-byte-aligned payload per fragment.
  const std::size_t max_payload = ((mtu - kIpv4HeaderSize) / 8) * 8;
  std::vector<Ipv4Packet> fragments;
  const Buffer& payload = packet.payload;

  std::size_t offset = 0;
  while (offset < payload.size()) {
    const std::size_t chunk = std::min(max_payload, payload.size() - offset);
    Ipv4Packet frag;
    frag.header = packet.header;
    frag.header.fragment_offset_units =
        static_cast<std::uint16_t>((packet.header.fragment_offset_bytes() + offset) / 8);
    frag.header.more_fragments =
        (offset + chunk < payload.size()) || packet.header.more_fragments;
    // A view into the original datagram's block: fragmentation moves no
    // payload bytes, only (offset, length) pairs.
    frag.payload = payload.view(offset, chunk);
    frag.header.total_length = static_cast<std::uint16_t>(frag.total_length());
    fragments.push_back(std::move(frag));
    offset += chunk;
  }
  return fragments;
}

std::optional<Ipv4Packet> Reassembler::offer(const Ipv4Packet& packet, SimTime now) {
  if (!packet.header.is_fragment()) {
    ++stats_.unfragmented_received;
    return packet;
  }
  ++stats_.fragments_received;

  const Key key{packet.header.src.value(), packet.header.dst.value(),
                packet.header.protocol, packet.header.identification};
  auto [it, inserted] = partial_.try_emplace(key);
  Partial& p = it->second;
  if (inserted) p.first_seen = now;
  ++p.fragment_count;

  const std::size_t off = packet.header.fragment_offset_bytes();
  const std::size_t end = off + packet.payload.size();
  p.extent = std::max(p.extent, end);
  p.coverage.insert(off, end);
  p.pieces.push_back({off, packet.payload});

  if (!packet.header.more_fragments) p.total_size = end;
  if (packet.header.fragment_offset_units == 0) {
    p.first_header = packet.header;
    p.have_first = true;
  }

  if (!p.total_size || !p.have_first || p.extent != *p.total_size ||
      !p.coverage.covers(0, p.extent)) {
    return std::nullopt;
  }

  Ipv4Packet whole;
  whole.header = p.first_header;
  whole.header.more_fragments = false;
  whole.header.fragment_offset_units = 0;
  // The one copy per *reassembled* datagram: each fragment straight into
  // the new block; unfragmented packets above never reach this path.
  whole.payload = Buffer::build(p.extent, [&p](std::span<std::uint8_t> out) {
    for (const Partial::Piece& piece : p.pieces)
      if (!piece.bytes.empty())
        std::memcpy(out.data() + piece.offset, piece.bytes.data(), piece.bytes.size());
  });
  whole.header.total_length = static_cast<std::uint16_t>(whole.total_length());
  partial_.erase(it);
  ++stats_.datagrams_delivered;
  return whole;
}

void Reassembler::expire(SimTime now) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.first_seen > timeout_) {
      ++stats_.datagrams_expired;
      stats_.fragments_wasted += it->second.fragment_count;
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace streamlab
