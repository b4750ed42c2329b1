// Refcounted immutable payload buffer — the zero-copy packet hot path.
//
// Every hop in the simulator used to copy full frame payloads: the link
// queue, the propagation lambda, router forwarding and host delivery each
// duplicated a std::vector. A Buffer instead shares one immutable byte block
// between all of them; copying a packet bumps a refcount, and a fragment is
// an (offset, length) *view* into the original datagram's block, so
// fragmentation allocates nothing for payload bytes.
//
// Ownership rules (also DESIGN.md §10):
//  - A block's bytes are written exactly once, by the fill callback handed
//    to Buffer::build, and are immutable from then on. Anyone needing
//    different bytes builds a new Buffer.
//  - Refcounts are NOT atomic and the slab recycler below is per-thread:
//    a Buffer must never be shared across threads. This is the same
//    thread-confinement contract as EventCtl — everything reachable from one
//    trial's EventLoop stays on that trial's thread.
//  - Blocks are served from a per-thread slab of power-of-two size classes
//    and recycled on release, so steady-state packet traffic performs no
//    heap allocation for payload storage at all.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/function_ref.hpp"

namespace streamlab::net {

/// Writes a new block's bytes in place; handed exactly the block's span and
/// expected to write all of it.
using ByteFill = FunctionRef<void(std::span<std::uint8_t>)>;

class Buffer {
 public:
  Buffer() noexcept = default;
  /// Copies `bytes` into a fresh (or recycled) block. Implicit from vector
  /// so packet-building call sites and tests can assign byte vectors
  /// directly; the copy happens once, at packet *creation* — never per hop.
  Buffer(const std::vector<std::uint8_t>& bytes) : Buffer(copy_of(bytes)) {}
  /// Hands `fill` a fresh (or recycled) block of `n` bytes to write once;
  /// the Buffer owns the block before `fill` runs, so a throwing fill leaks
  /// nothing. This is how a packet is written straight into its block
  /// instead of being assembled elsewhere and copied in. `fill` is not
  /// called for n == 0, which yields an empty Buffer.
  static Buffer build(std::size_t n, ByteFill fill);
  /// build() plus memcpy.
  static Buffer copy_of(std::span<const std::uint8_t> bytes);

  Buffer(const Buffer& other) noexcept
      : block_(other.block_), off_(other.off_), len_(other.len_) {
    retain();
  }
  Buffer(Buffer&& other) noexcept
      : block_(other.block_), off_(other.off_), len_(other.len_) {
    other.block_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }
  Buffer& operator=(const Buffer& other) noexcept {
    Buffer tmp(other);
    swap(tmp);
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    swap(other);
    return *this;
  }
  ~Buffer() { release(); }

  /// A sub-range sharing this buffer's block — the fragmentation primitive.
  /// Requires offset + length <= size(). A zero-length view holds no block.
  Buffer view(std::size_t offset, std::size_t length) const;

  const std::uint8_t* data() const;
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::span<const std::uint8_t> bytes() const { return {data(), len_}; }
  operator std::span<const std::uint8_t>() const { return bytes(); }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  /// Byte equality (C++20 synthesizes the reversed vector form).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }
  friend bool operator==(const Buffer& a, const std::vector<std::uint8_t>& b) {
    return a.len_ == b.size() &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

  /// True when `other` is a view into the same block (used by tests to
  /// assert that fragmentation did not copy payload bytes).
  bool shares_block_with(const Buffer& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  /// This thread's slab ledger, for the allocation benchmarks.
  struct SlabStats {
    std::uint64_t fresh_blocks = 0;    ///< blocks served by operator new
    std::uint64_t recycled_blocks = 0; ///< blocks served from the free lists
    std::uint64_t oversize_blocks = 0; ///< above the largest size class
  };
  static SlabStats slab_stats();
  /// Frees this thread's cached blocks (tests / leak-checker hygiene; the
  /// slab also drains itself at thread exit).
  static void trim_slab();

  struct Block;  ///< opaque refcount+storage header, defined in buffer.cpp

 private:
  Buffer(Block* block, std::size_t off, std::size_t len) noexcept
      : block_(block), off_(off), len_(len) {}
  void retain() noexcept;
  void release() noexcept;
  void swap(Buffer& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  Block* block_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace streamlab::net

namespace streamlab {
using net::Buffer;
using net::ByteFill;
}  // namespace streamlab
