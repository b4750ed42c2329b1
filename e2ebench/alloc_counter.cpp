// Counting replacement of the global allocation functions
// ([replacement.functions]). Every heap allocation in the binary — the
// simulator's included — passes through here; the counters are plain
// thread_locals, so the hook costs two increments and takes no lock.
#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++t_calls;
  t_bytes += size;
  return std::malloc(size ? size : 1);
}
}  // namespace

namespace e2ebench {
AllocCount thread_alloc_count() { return {t_calls, t_bytes}; }
}  // namespace e2ebench

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
