// Exact heap-allocation counts for the calling thread.
//
// alloc_count.cc replaces the global operator new/delete of the benchmark
// executables (as tests/nuise_alloc_test.cc does for its test binary) with
// versions that count every allocation and its size in thread-local
// tallies. Counting is always on; a thread-local increment costs nothing
// measurable next to the allocation itself.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

// Allocations made by the calling thread since it started.
AllocTally thread_allocs();

// Allocations made by the calling thread inside a scope.
class AllocScope {
 public:
  AllocScope() : start_(thread_allocs()) {}
  AllocTally delta() const {
    const AllocTally now = thread_allocs();
    return {now.count - start_.count, now.bytes - start_.bytes};
  }

 private:
  AllocTally start_;
};

}  // namespace perfbench
