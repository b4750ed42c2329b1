// Capture records and traces — the unit of data every analysis consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace streamlab {

/// One captured frame, as a sniffer saw it: a view of bytes its trace owns.
struct CaptureRecord {
  SimTime timestamp;
  std::uint32_t original_length = 0;   ///< wire length (may exceed stored bytes)
  std::span<const std::uint8_t> data;  ///< frame bytes, possibly truncated to snaplen
};

/// A std::allocator whose value-initialisation leaves bytes as they are, so
/// growing a byte buffer does not zero what is about to be written over.
/// Construction with arguments falls back to std::construct_at.
template <class T>
struct UninitAllocator : std::allocator<T> {
  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// An ordered sequence of captured frames plus capture metadata: one byte
/// buffer and an index of where each record's bytes lie in it. Records are
/// handed out as views; a view is valid until the trace is next appended
/// to, moved or destroyed.
class CaptureTrace {
 public:
  using Bytes = std::vector<std::uint8_t, UninitAllocator<std::uint8_t>>;

  /// Walks the records, handing out each as a view.
  class Iterator {
   public:
    Iterator(const CaptureTrace* trace, std::size_t i) : trace_(trace), i_(i) {}
    CaptureRecord operator*() const { return (*trace_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const CaptureTrace* trace_;
    std::size_t i_;
  };

  CaptureTrace() = default;
  explicit CaptureTrace(std::uint32_t snaplen) : snaplen_(snaplen) {}
  /// A trace whose buffer is `bytes`; index() then locates records in it.
  CaptureTrace(std::uint32_t snaplen, Bytes bytes)
      : snaplen_(snaplen), bytes_(std::move(bytes)) {}

  /// Records the frame whose bytes already lie at [offset, offset + length)
  /// of the buffer. The caller has checked that range.
  void index(SimTime when, std::uint32_t original_length, std::size_t offset,
             std::uint32_t length) {
    index_.push_back({when, offset, original_length, length});
  }
  /// Appends a record of `length` bytes at the end of the buffer and returns
  /// them, uninitialised, for the caller to write in full.
  std::span<std::uint8_t> append(SimTime when, std::uint32_t original_length,
                                 std::size_t length);
  /// Appends the record of an IPv4 packet's Ethernet frame cut to snaplen():
  /// the same bytes as frame_ipv4() cut to the snaplen, written once, in
  /// place, with the untruncated wire length.
  void add_packet(SimTime when, MacAddress src_mac, MacAddress dst_mac,
                  const Ipv4Packet& packet);
  /// Drops the last record; the next append reuses its bytes.
  void pop_back();

  CaptureRecord operator[](std::size_t i) const {
    const Entry& e = index_[i];
    return {e.timestamp, e.original_length,
            std::span<const std::uint8_t>(bytes_.data() + e.offset, e.length)};
  }
  CaptureRecord back() const { return (*this)[index_.size() - 1]; }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, index_.size()}; }
  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  std::uint32_t snaplen() const { return snaplen_; }

  /// Total captured wire bytes.
  std::uint64_t total_bytes() const;
  /// Capture duration (last timestamp - first), zero if < 2 records.
  Duration duration() const;

 private:
  struct Entry {
    SimTime timestamp;
    std::size_t offset;
    std::uint32_t original_length;
    std::uint32_t length;
  };

  std::uint32_t snaplen_ = 65535;
  Bytes bytes_;
  std::vector<Entry> index_;
};

}  // namespace streamlab
