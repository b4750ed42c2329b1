// Heap-allocation counts per thread, from the counting operator new that
// alloc_counter.cpp compiles into the benchmark binary (the same hook
// bench/bench_campaign.cpp uses). Counts are per thread, so a span on one
// campaign worker never sees another worker's allocations.
#pragma once

#include <cstdint>

namespace e2ebench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Cumulative allocations made by the calling thread.
AllocCount thread_alloc_count();

/// Allocations made by the calling thread since construction: one scope
/// per span, so each span counts from zero.
class AllocScope {
 public:
  AllocScope() : start_(thread_alloc_count()) {}
  AllocCount delta() const {
    const AllocCount now = thread_alloc_count();
    return {now.calls - start_.calls, now.bytes - start_.bytes};
  }

 private:
  AllocCount start_;
};

}  // namespace e2ebench
