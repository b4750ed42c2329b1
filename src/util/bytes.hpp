// Serialization helpers for network headers and pcap files.
//
// Network headers are big-endian; the pcap file format is host-endian (we
// always write little-endian and accept either on read). These two small
// cursor types centralise bounds checking so header codecs stay branch-light.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace streamlab {

/// Bounds-checked big-endian reader over a byte span. Reads past the end
/// set a sticky error flag instead of throwing; callers check ok() once at
/// the end of a header parse.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  std::uint8_t u8();
  std::uint16_t u16be();
  std::uint32_t u32be();
  std::uint16_t u16le();
  std::uint32_t u32le();
  /// Returns a view of the next n bytes and advances; empty view on underrun.
  std::span<const std::uint8_t> bytes(std::size_t n);
  void skip(std::size_t n);

 private:
  bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Append-only big/little-endian writer into a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v);
  void u16be(std::uint16_t v);
  void u32be(std::uint32_t v);
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Overwrites 2 bytes at an absolute offset (used to patch checksums and
  /// length fields after the payload is known).
  void patch_u16be(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Stores a big-endian 16-bit value at `p` (patching a checksum field).
inline void store_u16be(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

/// Big-endian writer into a caller-sized span: how a packet is built in
/// place in its buffer. The span is sized from the wire size of what is
/// written, so a write past its end is a caller bug; it is dropped rather
/// than written out of bounds.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  /// The bytes not yet written: where a payload goes after its header.
  std::span<std::uint8_t> rest() const { return out_.subspan(pos_); }

  void u8(std::uint8_t v) { put(&v, 1); }
  void u16be(std::uint16_t v) {
    std::uint8_t b[2];
    store_u16be(b, v);
    put(b, 2);
  }
  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v));
  }

 private:
  void put(const std::uint8_t* p, std::size_t n) {
    if (n == 0 || n > out_.size() - pos_) return;
    std::memcpy(out_.data() + pos_, p, n);
    pos_ += n;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Hex dump ("de ad be ef ..."), mostly for test failure messages.
std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes = 64);

}  // namespace streamlab
