// kernel.hpp — loop-dispatch helpers shared by the vl kernels.
//
// Every data-parallel kernel in the library funnels through parallel_for /
// parallel_reduce so the Serial/OpenMP policy decision lives in exactly one
// place. Bodies must be data-race free across iterations (each iteration
// owns its output slot); kernels with cross-iteration dependences (scans)
// implement their own blocked two-pass algorithms on top of these.
#pragma once

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "vl/backend.hpp"
#include "vl/vec.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace proteus::vl::detail {

/// True when the current policy wants a threaded loop of `n` iterations.
[[nodiscard]] inline bool use_threads(Size n) noexcept {
  return backend() == Backend::kOpenMP && n >= kParallelGrain &&
         openmp_available();
}

/// Run body(i) for i in [0, n), partitioned across threads when the OpenMP
/// backend is active and the trip count is worth it.
template <typename F>
void parallel_for(Size n, F&& body) {
#ifdef _OPENMP
  if (use_threads(n)) {
#pragma omp parallel for schedule(static)
    for (Size i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
#endif
  for (Size i = 0; i < n; ++i) {
    body(i);
  }
}

/// Tree-reduce acc = combine(acc, leaf(i)) over i in [0, n) starting from
/// `init`. `combine` must be associative and commutative.
template <typename T, typename Leaf, typename Combine>
T parallel_reduce(Size n, T init, Leaf&& leaf, Combine&& combine) {
#ifdef _OPENMP
  if (use_threads(n)) {
    T acc = init;
#pragma omp parallel
    {
      T local = init;
#pragma omp for schedule(static) nowait
      for (Size i = 0; i < n; ++i) {
        local = combine(local, leaf(i));
      }
#pragma omp critical
      acc = combine(acc, local);
    }
    return acc;
  }
#endif
  T acc = init;
  for (Size i = 0; i < n; ++i) {
    acc = combine(acc, leaf(i));
  }
  return acc;
}

/// "No check failed" for parallel_first_failure.
inline constexpr Size kNoFailure = std::numeric_limits<Size>::max();

/// parallel_for for a loop that checks its input as it goes: body(i)
/// returns a failure position it found (any order-preserving key, e.g. i
/// itself) or kNoFailure. Returns the least failure over all i, so every
/// backend reports the same, first, failure — and the caller throws it
/// after the loop, outside any parallel region.
template <typename F>
Size parallel_first_failure(Size n, F&& body) {
  return parallel_reduce(
      n, kNoFailure, std::forward<F>(body),
      [](Size a, Size b) { return a < b ? a : b; });
}

/// Start of every segment of a descriptor (its exclusive running sum),
/// written to `starts` (#lengths slots); returns the total. Throws on a
/// negative length, as lengths_total does. Serial: descriptors are far
/// shorter than the vectors they partition. Kernels call this to set up
/// their per-segment loop and record the whole primitive themselves, so
/// it records nothing.
inline Size segment_starts(const IntVec& lengths, Int* starts) {
  const Int* p = lengths.data();
  Int run = 0;
  for (Size i = 0; i < lengths.size(); ++i) {
    PROTEUS_REQUIRE(VectorError, p[i] >= 0,
                    "descriptor contains a negative length");
    starts[i] = run;
    run += p[i];
  }
  return run;
}

/// Number of true flags in mask[lo, hi).
inline Size count_true(const Bool* mask, Size lo, Size hi) {
  Size c = 0;
  for (Size i = lo; i < hi; ++i) c += mask[i] != 0 ? 1 : 0;
  return c;
}

/// The two passes of a stream compaction over [0, n): count(lo, hi)
/// counts the survivors of a block, alloc(total) sizes the output once
/// every block is counted, and write(lo, hi, before) writes a block's
/// survivors starting at `before`, the survivor count of all earlier
/// blocks. One block — a plain count then a plain write — unless the
/// OpenMP backend threads the loop, in which case each thread takes one
/// contiguous block. The result is the same either way.
template <typename Count, typename Alloc, typename Write>
void compact(Size n, Count&& count, Alloc&& alloc, Write&& write) {
#ifdef _OPENMP
  if (use_threads(n)) {
    const int threads = omp_get_max_threads();
    const Size block = (n + threads - 1) / threads;
    std::vector<Size> before(static_cast<std::size_t>(threads) + 1, 0);
#pragma omp parallel for schedule(static)
    for (int t = 0; t < threads; ++t) {
      const Size lo = std::min(n, t * block);
      const Size hi = std::min(n, lo + block);
      before[static_cast<std::size_t>(t) + 1] = count(lo, hi);
    }
    for (std::size_t t = 1; t < before.size(); ++t) before[t] += before[t - 1];
    alloc(before.back());
#pragma omp parallel for schedule(static)
    for (int t = 0; t < threads; ++t) {
      const Size lo = std::min(n, t * block);
      const Size hi = std::min(n, lo + block);
      write(lo, hi, before[static_cast<std::size_t>(t)]);
    }
    return;
  }
#endif
  alloc(count(Size{0}, n));
  write(Size{0}, n, Size{0});
}

}  // namespace proteus::vl::detail
