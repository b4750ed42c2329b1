#include "util/bytes.hpp"

#include <cstdio>

namespace streamlab {

bool ByteReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16be() {
  if (!take(2)) return 0;
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32be() {
  if (!take(4)) return 0;
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                          static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint16_t ByteReader::u16le() {
  if (!take(2)) return 0;
  const std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32le() {
  if (!take(4)) return 0;
  const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                          (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return v;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  if (!take(n)) return {};
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::skip(std::size_t n) {
  if (take(n)) pos_ += n;
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16be(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32be(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u16le(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32le(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::patch_u16be(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) return;
  store_u16be(buf_.data() + offset, v);
}

std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = data.size() < max_bytes ? data.size() : max_bytes;
  char tmp[4];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(tmp, sizeof tmp, "%02x", data[i]);
    if (i) out.push_back(' ');
    out += tmp;
  }
  if (n < data.size()) out += " ...";
  return out;
}

}  // namespace streamlab
