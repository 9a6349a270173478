// arena.cpp — thread-local pool stack behind vl/arena.hpp.
#include "vl/arena.hpp"

#include <array>
#include <bit>
#include <memory>
#include <utility>

#include "rt/governor.hpp"

namespace proteus::vl::arena {

namespace {

/// Buffers below this capacity free normally: pooling them costs more in
/// bookkeeping than the allocator charges for them.
constexpr std::uint64_t kMinDonationBytes = 256;
/// Size-class buckets: floor(log2(capacity)), capped.
constexpr std::size_t kClasses = 48;

std::size_t class_of(std::size_t n) {
  const auto c = static_cast<std::size_t>(
      std::bit_width(n == 0 ? std::size_t{1} : n) - 1);
  return c < kClasses ? c : kClasses - 1;
}

template <typename T>
struct TypedPool {
  struct Entry {
    Buffer<T> buf;
    std::uint64_t charged = 0;
  };
  std::array<std::vector<Entry>, kClasses> buckets;
};

struct Pool {
  std::uint64_t cap_bytes = 0;
  std::uint64_t held_bytes = 0;
  std::uint64_t buffers = 0;
  TypedPool<std::int64_t> ints;
  TypedPool<double> reals;
  TypedPool<std::uint8_t> bools;
  Pool* previous = nullptr;
};

thread_local Pool* t_pool = nullptr;

template <typename T>
TypedPool<T>& typed(Pool& p);
template <>
TypedPool<std::int64_t>& typed(Pool& p) {
  return p.ints;
}
template <>
TypedPool<double>& typed(Pool& p) {
  return p.reals;
}
template <>
TypedPool<std::uint8_t>& typed(Pool& p) {
  return p.bools;
}

template <typename T>
bool acquire_impl(std::size_t n, Buffer<T>& out,
                  std::uint64_t& charged) noexcept {
  Pool* p = t_pool;
  if (p == nullptr || n == 0) return false;
  TypedPool<T>& tp = typed<T>(*p);
  // A buffer of capacity >= n lives in class(n) (upper half) or any class
  // above; scanning two classes keeps worst-case waste under 4x.
  const std::size_t first = class_of(n);
  for (std::size_t c = first; c < first + 2 && c < kClasses; ++c) {
    auto& bucket = tp.buckets[c];
    for (std::size_t i = bucket.size(); i-- > 0;) {
      if (bucket[i].buf.capacity() < n) continue;
      out = std::move(bucket[i].buf);
      charged = bucket[i].charged;
      bucket[i] = std::move(bucket.back());
      bucket.pop_back();
      p->held_bytes -= charged;
      p->buffers -= 1;
      return true;
    }
  }
  return false;
}

template <typename T>
bool donate_impl(Buffer<T>&& v, std::uint64_t charged) noexcept {
  Pool* p = t_pool;
  if (p == nullptr) return false;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
  if (bytes < kMinDonationBytes || charged == 0) return false;
  if (p->held_bytes + charged > p->cap_bytes) return false;
  TypedPool<T>& tp = typed<T>(*p);
  auto& bucket = tp.buckets[class_of(v.capacity())];
  try {
    bucket.push_back({std::move(v), charged});
  } catch (...) {
    return false;  // the caller still owns v and its charge
  }
  p->held_bytes += charged;
  p->buffers += 1;
  return true;
}

}  // namespace

Scope::Scope(std::uint64_t cap_bytes) {
  auto* p = new Pool;
  p->cap_bytes = cap_bytes;
  p->previous = t_pool;
  t_pool = p;
}

Scope::~Scope() {
  Pool* p = t_pool;
  if (p == nullptr) return;
  t_pool = p->previous;
  // Pooled buffers carry their governor charge; freeing them here must
  // return it or resident-byte accounting leaks upward.
  rt::release_bytes(p->held_bytes);
  delete p;
}

bool active() noexcept { return t_pool != nullptr; }

Totals totals() noexcept {
  if (t_pool == nullptr) return {};
  return {t_pool->held_bytes, t_pool->buffers};
}

bool try_acquire(std::size_t n, Buffer<std::int64_t>& out,
                 std::uint64_t& charged) noexcept {
  return acquire_impl(n, out, charged);
}
bool try_acquire(std::size_t n, Buffer<double>& out,
                 std::uint64_t& charged) noexcept {
  return acquire_impl(n, out, charged);
}
bool try_acquire(std::size_t n, Buffer<std::uint8_t>& out,
                 std::uint64_t& charged) noexcept {
  return acquire_impl(n, out, charged);
}

bool try_donate(Buffer<std::int64_t>&& v, std::uint64_t charged) noexcept {
  return donate_impl(std::move(v), charged);
}
bool try_donate(Buffer<double>&& v, std::uint64_t charged) noexcept {
  return donate_impl(std::move(v), charged);
}
bool try_donate(Buffer<std::uint8_t>&& v, std::uint64_t charged) noexcept {
  return donate_impl(std::move(v), charged);
}

}  // namespace proteus::vl::arena
