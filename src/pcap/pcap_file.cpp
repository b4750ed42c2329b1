#include "pcap/pcap_file.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "util/bytes.hpp"

namespace streamlab {
namespace {

struct HeaderFormat {
  bool swapped = false;   // file byte order != little-endian
  bool nanos = false;
};

/// The whole stream, read in large chunks.
std::vector<std::uint8_t> read_all(std::istream& in) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<std::uint8_t> bytes;
  for (;;) {
    const std::size_t used = bytes.size();
    bytes.resize(used + kChunk);
    in.read(reinterpret_cast<char*>(bytes.data() + used), kChunk);
    const auto got = static_cast<std::size_t>(in.gcount());
    bytes.resize(used + got);
    if (got < kChunk) return bytes;
  }
}

/// The number of record headers a walk over the record lengths finds; the
/// read loop below is the one that validates them.
std::size_t count_records(ByteReader r, bool swapped) {
  std::size_t count = 0;
  while (r.remaining() >= 16) {
    r.skip(8);  // timestamp
    const std::uint32_t incl_len = swapped ? __builtin_bswap32(r.u32le()) : r.u32le();
    r.skip(4);  // orig_len
    r.skip(std::min<std::size_t>(incl_len, r.remaining()));
    ++count;
  }
  return count;
}

}  // namespace

bool write_pcap(std::ostream& out, const CaptureTrace& trace) {
  ByteWriter w(24 + trace.size() * 64);
  w.u32le(kPcapMagicNanos);
  w.u16le(2);   // version major
  w.u16le(4);   // version minor
  w.u32le(0);   // thiszone
  w.u32le(0);   // sigfigs
  w.u32le(trace.snaplen());
  w.u32le(kPcapLinkTypeEthernet);

  for (const auto& rec : trace.records()) {
    const std::int64_t ns = rec.timestamp.ns();
    w.u32le(static_cast<std::uint32_t>(ns / 1'000'000'000));
    w.u32le(static_cast<std::uint32_t>(ns % 1'000'000'000));
    w.u32le(static_cast<std::uint32_t>(rec.data.size()));
    w.u32le(rec.original_length);
    w.bytes(rec.data);
  }
  const auto view = w.view();
  out.write(reinterpret_cast<const char*>(view.data()),
            static_cast<std::streamsize>(view.size()));
  return static_cast<bool>(out);
}

bool write_pcap_file(const std::string& path, const CaptureTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  return out && write_pcap(out, trace);
}

Expected<CaptureTrace> read_pcap(std::istream& in) {
  const std::vector<std::uint8_t> bytes = read_all(in);
  ByteReader r(bytes);

  const std::uint32_t magic_le = r.u32le();
  HeaderFormat fmt;
  switch (magic_le) {
    case kPcapMagicMicros: fmt = {false, false}; break;
    case kPcapMagicNanos: fmt = {false, true}; break;
    case 0xD4C3B2A1: fmt = {true, false}; break;  // big-endian micros
    case 0x4D3CB2A1: fmt = {true, true}; break;   // big-endian nanos
    default:
      return Unexpected(std::string("not a pcap file (bad magic)"));
  }
  const auto u16 = [&] { return fmt.swapped ? static_cast<std::uint16_t>(__builtin_bswap16(r.u16le())) : r.u16le(); };
  const auto u32 = [&] { return fmt.swapped ? __builtin_bswap32(r.u32le()) : r.u32le(); };

  const std::uint16_t ver_major = u16();
  u16();  // version minor
  if (ver_major != 2) return Unexpected(std::string("unsupported pcap version"));
  u32();  // thiszone
  u32();  // sigfigs
  const std::uint32_t snaplen = u32();
  const std::uint32_t linktype = u32();
  if (!r.ok()) return Unexpected(std::string("truncated pcap global header"));
  if (linktype != kPcapLinkTypeEthernet)
    return Unexpected(std::string("unsupported link type"));

  CaptureTrace trace(snaplen);
  trace.reserve(count_records(r, fmt.swapped));
  while (r.remaining() > 0) {
    const std::uint32_t ts_sec = u32();
    const std::uint32_t ts_frac = u32();
    const std::uint32_t incl_len = u32();
    const std::uint32_t orig_len = u32();
    if (!r.ok()) return Unexpected(std::string("truncated pcap record header"));
    if (incl_len > snaplen || incl_len > r.remaining())
      return Unexpected(std::string("pcap record length out of range"));
    // A record cannot hold more bytes than went over the wire.
    if (orig_len < incl_len)
      return Unexpected("pcap record " + std::to_string(trace.size()) + ": orig_len " +
                        std::to_string(orig_len) + " < incl_len " + std::to_string(incl_len));
    auto data = r.bytes(incl_len);

    CaptureRecord rec;
    const std::int64_t frac_ns = fmt.nanos ? ts_frac : static_cast<std::int64_t>(ts_frac) * 1'000;
    rec.timestamp = SimTime(static_cast<std::int64_t>(ts_sec) * 1'000'000'000 + frac_ns);
    rec.original_length = orig_len;
    rec.data.assign(data.begin(), data.end());
    trace.add(std::move(rec));
  }
  return trace;
}

Expected<CaptureTrace> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Unexpected("cannot open " + path);
  return read_pcap(in);
}

}  // namespace streamlab
