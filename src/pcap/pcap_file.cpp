#include "pcap/pcap_file.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "util/bytes.hpp"

namespace streamlab {
namespace {

constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;

/// The rest of the stream. A stream that can tell its size is read in one
/// go into a buffer of that size; any other in large chunks.
CaptureTrace::Bytes read_all(std::istream& in) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::size_t want = kChunk;
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    // One byte more than the size, so the first read ends the stream.
    want = std::max(static_cast<std::size_t>(in.tellg() - start) + 1, kChunk);
    in.seekg(start);
  }
  in.clear();
  CaptureTrace::Bytes bytes;
  for (;;) {
    const std::size_t used = bytes.size();
    bytes.resize(used + want);
    in.read(reinterpret_cast<char*>(bytes.data() + used), static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in.gcount());
    bytes.resize(used + got);
    if (got < want) return bytes;
    want = kChunk;
  }
}

/// Indexes every record of a whole pcap file where it lies in `bytes`,
/// which become the trace's buffer. Offsets are size_t and each length is
/// checked against what is left, so no arithmetic can wrap.
Expected<CaptureTrace> index_pcap(CaptureTrace::Bytes bytes) {
  ByteReader r(bytes);
  bool swapped = false;  // file byte order != little-endian
  bool nanos = false;
  switch (r.u32le()) {
    case kPcapMagicMicros: break;
    case kPcapMagicNanos: nanos = true; break;
    case 0xD4C3B2A1: swapped = true; break;  // big-endian micros
    case 0x4D3CB2A1: swapped = nanos = true; break;  // big-endian nanos
    default:
      return Unexpected(std::string("not a pcap file (bad magic)"));
  }
  const auto u16 = [&] { return swapped ? static_cast<std::uint16_t>(__builtin_bswap16(r.u16le())) : r.u16le(); };
  const auto u32 = [&] { return swapped ? __builtin_bswap32(r.u32le()) : r.u32le(); };

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

  // Each record header is checked for length once, then read in place.
  const auto load = [swapped](const std::uint8_t* at) {
    const std::uint32_t v = load_u32le(at);
    return swapped ? __builtin_bswap32(v) : v;
  };
  const std::uint8_t* p = bytes.data();
  const std::size_t size = bytes.size();
  // Moving a vector keeps its elements where they are, so `p` stays valid.
  CaptureTrace trace(snaplen, std::move(bytes));
  for (std::size_t at = kGlobalHeaderSize; at < size;) {
    if (size - at < kRecordHeaderSize)
      return Unexpected(std::string("truncated pcap record header"));
    const std::uint32_t ts_sec = load(p + at);
    const std::uint32_t ts_frac = load(p + at + 4);
    const std::uint32_t incl_len = load(p + at + 8);
    const std::uint32_t orig_len = load(p + at + 12);
    at += kRecordHeaderSize;
    if (incl_len > snaplen || incl_len > size - at)
      return Unexpected(std::string("pcap record length out of range"));
    // A record cannot hold more bytes than went over the wire.
    if (orig_len < incl_len)
      return Unexpected("pcap record " + std::to_string(trace.size()) + ": orig_len " +
                        std::to_string(orig_len) + " < incl_len " + std::to_string(incl_len));
    const std::int64_t frac_ns = nanos ? ts_frac : static_cast<std::int64_t>(ts_frac) * 1'000;
    trace.index(SimTime(static_cast<std::int64_t>(ts_sec) * 1'000'000'000 + frac_ns), orig_len,
                at, incl_len);
    at += incl_len;
  }
  return trace;
}

}  // namespace

bool write_pcap(std::ostream& out, const CaptureTrace& trace) {
  ByteWriter w(kGlobalHeaderSize + trace.size() * 64);
  w.u32le(kPcapMagicNanos);
  w.u16le(2);   // version major
  w.u16le(4);   // version minor
  w.u32le(0);   // thiszone
  w.u32le(0);   // sigfigs
  w.u32le(trace.snaplen());
  w.u32le(kPcapLinkTypeEthernet);

  for (const CaptureRecord& rec : trace) {
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

Expected<CaptureTrace> read_pcap(std::istream& in) { return index_pcap(read_all(in)); }

Expected<CaptureTrace> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Unexpected("cannot open " + path);
  return read_pcap(in);
}

}  // namespace streamlab
