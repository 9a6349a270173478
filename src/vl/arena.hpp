// arena.hpp — the per-evaluation recycling arena behind the memory plan.
//
// The analyzer (analysis/lifetime.hpp) proves most vl buffers die at a
// statically known instruction; the VM's planned path clears dead
// registers there, which drops the last reference and destroys the
// backing Vec. With an arena scope active, that destructor *donates* its
// heap buffer (and the governor bytes already charged for it) to a
// thread-local pool instead of freeing it, and the next sized Vec
// construction *acquires* a pooled buffer of the right type and capacity
// instead of calling the allocator. The effect is slot reuse: quicksort's
// ~4k per-evaluation allocations collapse into a few dozen that then
// circulate (ROADMAP "arena/pool allocator" item).
//
// Accounting invariants:
//   * pooled buffers stay charged against the rt:: resident-byte budget
//     (the charge travels with the buffer: donate banks it, acquire hands
//     it to the new owner) — `charge_bytes` totals remain truthful, which
//     is why plans publish a peak bound of 2x the live watermark and the
//     VM caps the pool at bound/2 (see docs/VM.md),
//   * donate/acquire never call the governor, so they are safely noexcept
//     and usable from ~Vec,
//   * the pool refuses donations beyond its cap or smaller than one cache
//     line's worth; refused buffers free normally.
//
// No header in vl/ below this one is included here: vec.hpp includes
// arena.hpp, so the pool traffics in raw Buffer storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace proteus::vl::arena {

/// std::allocator whose value-less construct() default-initializes, so
/// growing a vector of scalars allocates without zero-filling. Explicit
/// values (assign(n, v), copies, push_back) construct as usual.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The storage behind every vl::Vec<T>, and the unit the pool recycles.
template <typename T>
using Buffer = std::vector<T, DefaultInitAllocator<T>>;

/// Opens a per-evaluation arena on this thread; nested scopes stack, and
/// all pool traffic goes to the innermost one. Destruction frees every
/// still-pooled buffer and releases its banked governor charge.
class Scope {
 public:
  /// `cap_bytes` bounds the governor bytes the pool may hold at once
  /// (0 = refuse everything: an inert scope).
  explicit Scope(std::uint64_t cap_bytes);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

/// True when a Scope is open on this thread.
[[nodiscard]] bool active() noexcept;

/// Innermost pool's banked charge / buffer count (0/0 when inactive).
struct Totals {
  std::uint64_t held_bytes = 0;
  std::uint64_t buffers = 0;
};
[[nodiscard]] Totals totals() noexcept;

/// Hands `out` a pooled buffer with capacity >= n (same element type) and
/// stores the governor charge that travels with it in `charged`. Returns
/// false — leaving `out` untouched — when inactive or nothing fits.
[[nodiscard]] bool try_acquire(std::size_t n, Buffer<std::int64_t>& out,
                               std::uint64_t& charged) noexcept;
[[nodiscard]] bool try_acquire(std::size_t n, Buffer<double>& out,
                               std::uint64_t& charged) noexcept;
[[nodiscard]] bool try_acquire(std::size_t n, Buffer<std::uint8_t>& out,
                               std::uint64_t& charged) noexcept;

/// Banks a dying buffer and its outstanding governor charge. Returns
/// false — leaving `v` untouched, charge still the caller's to release —
/// when inactive, the buffer is too small to bother, or the pool is full.
[[nodiscard]] bool try_donate(Buffer<std::int64_t>&& v,
                              std::uint64_t charged) noexcept;
[[nodiscard]] bool try_donate(Buffer<double>&& v,
                              std::uint64_t charged) noexcept;
[[nodiscard]] bool try_donate(Buffer<std::uint8_t>&& v,
                              std::uint64_t charged) noexcept;

/// Catch-alls for Vec<T> instantiations the pool does not carry.
template <typename T>
[[nodiscard]] inline bool try_acquire(std::size_t /*n*/,
                                      Buffer<T>& /*out*/,
                                      std::uint64_t& /*charged*/) noexcept {
  return false;
}
template <typename T>
[[nodiscard]] inline bool try_donate(Buffer<T>&& /*v*/,
                                     std::uint64_t /*charged*/) noexcept {
  return false;
}

}  // namespace proteus::vl::arena
