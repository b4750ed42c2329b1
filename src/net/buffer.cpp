#include "net/buffer.hpp"

#include <bit>
#include <new>

namespace streamlab::net {
namespace {

// Power-of-two size classes 64 B .. 64 KiB. A full-MTU fragment payload
// (1480 B) lands in the 2 KiB class; a reassembled multi-fragment WM frame
// in the 8-16 KiB classes. Anything larger is allocated directly and never
// recycled — such blocks are rare enough not to matter.
constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kMaxClassBytes = 64 * 1024;
constexpr std::uint32_t kNumClasses = 11;  // 64 << 10 == 64 KiB
constexpr std::uint32_t kOversizeClass = 0xFFFFFFFFu;
// Retention bound per class, so a burst of deep queues cannot pin an
// unbounded amount of memory in the free lists.
constexpr std::size_t kMaxFreePerClass = 128;

std::uint32_t class_for(std::size_t n) {
  if (n > kMaxClassBytes) return kOversizeClass;
  const std::size_t rounded = std::bit_ceil(n < kMinClassBytes ? kMinClassBytes : n);
  return static_cast<std::uint32_t>(std::countr_zero(rounded) -
                                    std::countr_zero(kMinClassBytes));
}

std::size_t class_bytes(std::uint32_t cls) { return kMinClassBytes << cls; }

}  // namespace

/// Header preceding the payload bytes; blocks are allocated as one chunk so
/// a packet's control data and bytes share locality. `next_free` threads the
/// per-class free list while the block is parked in the slab.
struct Buffer::Block {
  std::uint32_t refs;
  std::uint32_t size_class;
  Block* next_free;

  std::uint8_t* payload() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  const std::uint8_t* payload() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

namespace {

/// Per-thread block recycler. Thread-locality is what lets Buffer refcounts
/// stay non-atomic: every trial runs on one thread, allocates from its own
/// slab and returns blocks to it. The destructor frees the cached blocks at
/// thread exit.
struct Slab {
  Buffer::Block* free_list[kNumClasses] = {};
  std::size_t depth[kNumClasses] = {};
  Buffer::SlabStats stats;

  ~Slab() { trim(); }

  void trim() {
    for (std::uint32_t cls = 0; cls < kNumClasses; ++cls) {
      while (free_list[cls] != nullptr) {
        Buffer::Block* b = free_list[cls];
        free_list[cls] = b->next_free;
        ::operator delete(b);
      }
      depth[cls] = 0;
    }
  }

  Buffer::Block* allocate(std::size_t n) {
    const std::uint32_t cls = class_for(n);
    Buffer::Block* b;
    if (cls != kOversizeClass && free_list[cls] != nullptr) {
      b = free_list[cls];
      free_list[cls] = b->next_free;
      --depth[cls];
      ++stats.recycled_blocks;
    } else {
      const std::size_t capacity = cls == kOversizeClass ? n : class_bytes(cls);
      b = static_cast<Buffer::Block*>(
          ::operator new(sizeof(Buffer::Block) + capacity));
      cls == kOversizeClass ? ++stats.oversize_blocks : ++stats.fresh_blocks;
    }
    b->refs = 1;
    b->size_class = cls;
    b->next_free = nullptr;
    return b;
  }

  void release(Buffer::Block* b) {
    const std::uint32_t cls = b->size_class;
    if (cls == kOversizeClass || depth[cls] >= kMaxFreePerClass) {
      ::operator delete(b);
      return;
    }
    b->next_free = free_list[cls];
    free_list[cls] = b;
    ++depth[cls];
  }
};

thread_local Slab t_slab;

}  // namespace

Buffer Buffer::build(std::size_t n, ByteFill fill) {
  if (n == 0) return {};
  Block* b = t_slab.allocate(n);
  Buffer out(b, 0, n);
  fill({b->payload(), n});
  return out;
}

Buffer Buffer::copy_of(std::span<const std::uint8_t> bytes) {
  return build(bytes.size(), [bytes](std::span<std::uint8_t> out) {
    std::memcpy(out.data(), bytes.data(), out.size());
  });
}

Buffer Buffer::view(std::size_t offset, std::size_t length) const {
  if (length == 0 || offset + length > len_) return {};
  Buffer v(block_, off_ + offset, length);
  v.retain();
  return v;
}

const std::uint8_t* Buffer::data() const {
  return block_ == nullptr ? nullptr : block_->payload() + off_;
}

void Buffer::retain() noexcept {
  if (block_ != nullptr) ++block_->refs;
}

void Buffer::release() noexcept {
  if (block_ != nullptr && --block_->refs == 0) t_slab.release(block_);
  block_ = nullptr;
}

Buffer::SlabStats Buffer::slab_stats() { return t_slab.stats; }

void Buffer::trim_slab() { t_slab.trim(); }

}  // namespace streamlab::net
