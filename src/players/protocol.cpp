#include "players/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace streamlab {

std::vector<std::uint8_t> ControlMessage::encode() const {
  ByteWriter w(14 + clip_id.size());
  w.u16be(kControlMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16be(value);
  w.u32be(static_cast<std::uint32_t>(offset >> 32));
  w.u32be(static_cast<std::uint32_t>(offset));
  w.u8(static_cast<std::uint8_t>(clip_id.size()));
  for (char c : clip_id) w.u8(static_cast<std::uint8_t>(c));
  return w.take();
}

std::optional<ControlMessage> ControlMessage::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u16be() != kControlMagic) return std::nullopt;
  ControlMessage msg;
  msg.type = static_cast<ControlType>(r.u8());
  msg.value = r.u16be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  msg.offset = (hi << 32) | lo;
  const std::size_t len = r.u8();
  auto id = r.bytes(len);
  if (!r.ok()) return std::nullopt;
  msg.clip_id.assign(id.begin(), id.end());
  return msg;
}

namespace {

// Two periods of the 256-byte synthetic media pattern: the period that
// starts at any phase is one contiguous run of it.
constexpr auto kMediaPattern = [] {
  std::array<std::uint8_t, 512> table{};
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<std::uint8_t>(i);
  return table;
}();

/// Synthetic media payload: deterministic by stream offset, compressible but
/// nonzero so captures are visually distinguishable from padding.
void fill_media(std::span<std::uint8_t> out, std::uint64_t media_offset) {
  const std::uint8_t* period = kMediaPattern.data() + (media_offset & 0xFF);
  for (std::size_t at = 0; at < out.size(); at += 256)
    std::memcpy(out.data() + at, period, std::min<std::size_t>(256, out.size() - at));
}

}  // namespace

std::size_t DataHeader::wire_size(std::size_t media_len) const {
  const bool multipath = (flags & kFlagMultipath) != 0;
  return kDataHeaderSize + (multipath ? kMultipathExtensionSize : 0) + media_len;
}

void DataHeader::write(std::span<std::uint8_t> out) const {
  const bool multipath = (flags & kFlagMultipath) != 0;
  SpanWriter w(out);
  w.u16be(kDataMagic);
  w.u8(flags);
  w.u8(multipath ? subflow_id : std::uint8_t{0});  // reserved pre-multipath
  w.u32be(seq);
  w.u32be(static_cast<std::uint32_t>(media_offset >> 32));
  w.u32be(static_cast<std::uint32_t>(media_offset));
  if (multipath) w.u32be(subflow_seq);
  fill_media(w.rest(), media_offset);
}

std::vector<std::uint8_t> DataHeader::make_packet(const DataHeader& header,
                                                  std::size_t media_len) {
  std::vector<std::uint8_t> out(header.wire_size(media_len));
  header.write(out);
  return out;
}

std::optional<DataHeader> DataHeader::decode(std::span<const std::uint8_t> payload,
                                             std::size_t& media_len) {
  ByteReader r(payload);
  if (r.u16be() != kDataMagic) return std::nullopt;
  DataHeader h;
  h.flags = r.u8();
  h.subflow_id = r.u8();  // reserved (always 0) without kFlagMultipath
  h.seq = r.u32be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  if ((h.flags & kFlagMultipath) != 0) h.subflow_seq = r.u32be();
  if (!r.ok()) return std::nullopt;
  h.media_offset = (hi << 32) | lo;
  media_len = r.remaining();
  return h;
}

void ParityHeader::write(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u16be(kParityMagic);
  w.u8(k);
  w.u8(stride);
  w.u32be(block_base);
  w.u32be(static_cast<std::uint32_t>(xor_media_offset >> 32));
  w.u32be(static_cast<std::uint32_t>(xor_media_offset));
  w.u32be(xor_media_len);
  w.u8(xor_flags);
  w.u8(0);  // reserved
  const std::span<std::uint8_t> pad = w.rest();
  std::memset(pad.data(), 0xFE, pad.size());
}

std::vector<std::uint8_t> ParityHeader::make_packet(const ParityHeader& header,
                                                    std::size_t pad_len) {
  std::vector<std::uint8_t> out(wire_size(pad_len));
  header.write(out);
  return out;
}

std::optional<ParityHeader> ParityHeader::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u16be() != kParityMagic) return std::nullopt;
  ParityHeader h;
  h.k = r.u8();
  h.stride = r.u8();
  h.block_base = r.u32be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  h.xor_media_len = r.u32be();
  h.xor_flags = r.u8();
  r.u8();  // reserved
  if (!r.ok()) return std::nullopt;
  h.xor_media_offset = (hi << 32) | lo;
  return h;
}

}  // namespace streamlab
