// Small-buffer-optimized event callback.
//
// `std::function<void()>` heap-allocates for any capture larger than two
// pointers, which at city-scale fleet sizes means one allocation per
// scheduled event. EventFn is a move-only callable with 48 bytes of inline
// storage — enough for the captures the players, links and fleet sessions
// schedule (a couple of pointers and an index) — so the common path stores
// the closure directly inside the queued event. Larger or throwing-move
// captures fall back to a single heap cell, preserving std::function
// semantics for the rare big capture. A packet is one such capture: an
// Ipv4Packet is 48 bytes on its own, so a link's delivery event captures
// only (this, dir) and the packet waits in the link's in-flight FIFO.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace streamlab {

class EventFn {
 public:
  /// Inline capture budget. Sized so the queued Event (when + seq + fn + ctl)
  /// still packs a handful per cache-line pair; captures up to this size with
  /// a noexcept move constructor stay allocation-free.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->call(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the capture lives in the inline buffer (no heap cell).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*call)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        auto* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
      true};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**reinterpret_cast<D**>(p))(); },
      [](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* p) { delete *reinterpret_cast<D**>(p); },
      false};

  void steal(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace streamlab
