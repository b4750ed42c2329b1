#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace streamlab {
namespace {

/// One's-complement sum of `n` (even) bytes as 16-bit words, folded to 16
/// bits, in big-endian word order. The loop adds eight bytes per step in
/// native order with an end-around carry: 2^64 = 1 (mod 0xFFFF), so that is
/// the 16-bit sum, and on a little-endian host it comes out byte-swapped
/// (RFC 1071 §2(B)), which one swap at the end undoes. The sum is zero only
/// when every byte is, exactly as for the word-at-a-time reference.
std::uint16_t sum_words(const std::uint8_t* p, std::size_t n) {
  std::uint64_t sum = 0;
  auto add = [&sum](std::uint64_t w) {
    sum += w;
    sum += sum < w ? 1 : 0;
  };
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    add(w);
  }
  if (n != 0) {
    std::uint64_t w = 0;  // the missing words are zero, which adds nothing
    std::memcpy(&w, p, n);
    add(w);
  }
  sum = (sum & 0xFFFFFFFF) + (sum >> 32);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto folded = static_cast<std::uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little)
    return static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  return folded;
}

}  // namespace

void ChecksumAccumulator::add(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  if (odd_) {
    // Previous section ended on an odd byte: the first byte here is the low
    // half of that straddling 16-bit word.
    sum_ += *p++;
    --n;
    odd_ = false;
  }
  const std::size_t even = n & ~std::size_t{1};
  sum_ += sum_words(p, even);
  if (even != n) {
    sum_ += static_cast<std::uint32_t>(p[even]) << 8;
    odd_ = true;
  }
}

void ChecksumAccumulator::add_u16(std::uint16_t v) {
  if (!odd_) {
    sum_ += v;
    return;
  }
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
  add(bytes);
}

void ChecksumAccumulator::add_u32(std::uint32_t v) {
  add_u16(static_cast<std::uint16_t>(v >> 16));
  add_u16(static_cast<std::uint16_t>(v));
}

std::uint16_t ChecksumAccumulator::fold() const {
  std::uint64_t s = sum_;
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFF);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.fold();
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> header,
                                 std::span<const std::uint8_t> payload) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(protocol);  // zero byte + protocol
  acc.add_u16(static_cast<std::uint16_t>(header.size() + payload.size()));
  acc.add(header);
  acc.add(payload);
  const std::uint16_t c = acc.fold();
  // RFC 768: a computed UDP checksum of zero is transmitted as all ones.
  return c == 0 ? 0xFFFF : c;
}

}  // namespace streamlab
