#include "vl/permute.hpp"

#include <atomic>

#include "vl/kernel.hpp"

namespace proteus::vl {

namespace detail {

template <typename T>
Vec<T> gather_impl(const Vec<T>& values, const IntVec& indices) {
  const Size n = indices.size();
  const Size m = values.size();
  Vec<T> out(n);
  const T* vp = values.data();
  const Int* ip = indices.data();
  T* op = out.data();
  const Size bad = parallel_first_failure(n, [&](Size i) {
    if (ip[i] < 0 || ip[i] >= m) return i;
    op[i] = vp[ip[i]];
    return kNoFailure;
  });
  if (bad != kNoFailure) {
    const Int j = ip[bad];
    PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                    "gather index " + std::to_string(j) +
                        " out of range for vector of length " +
                        std::to_string(m));
  }
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> permute_impl(const Vec<T>& values, const IntVec& positions) {
  require_same_length(values, positions, "permute");
  const Size n = values.size();
  Vec<T> out(n);
  Vec<Bool> written(n, Bool{0});
  const T* vp = values.data();
  const Int* pp = positions.data();
  T* op = out.data();
  Bool* wp = written.data();
  const Size bad = parallel_first_failure(n, [&](Size i) {
    if (pp[i] < 0 || pp[i] >= n) return i;
    op[pp[i]] = vp[i];
    wp[pp[i]] = 1;  // each slot is written once iff positions is a permutation
    return kNoFailure;
  });
  if (bad != kNoFailure) {
    const Int j = pp[bad];
    PROTEUS_REQUIRE(VectorError, j >= 0 && j < n,
                    "permute position out of range");
  }
  for (Size i = 0; i < n; ++i) {
    PROTEUS_REQUIRE(VectorError, wp[i] != 0,
                    "permute positions are not a permutation");
  }
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> scatter_impl(const Vec<T>& into, const IntVec& positions,
                    const Vec<T>& values) {
  require_same_length(positions, values, "scatter");
  const Size n = values.size();
  const Size m = into.size();
  Vec<T> out = into;
  Vec<Bool> written(m, Bool{0});
  const T* vp = values.data();
  const Int* pp = positions.data();
  T* op = out.data();
  Bool* wp = written.data();
  for (Size i = 0; i < n; ++i) {  // serial: duplicate detection is ordered
    const Int j = pp[i];
    PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                    "scatter position out of range");
    PROTEUS_REQUIRE(VectorError, wp[j] == 0,
                    "scatter writes position " + std::to_string(j) + " twice");
    op[j] = vp[i];
    wp[j] = 1;
  }
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> seg_gather_impl(const Vec<T>& values, const IntVec& src_offsets,
                       const IntVec& src_lengths, const IntVec& seg_of,
                       const IntVec& local_index) {
  require_same_length(seg_of, local_index, "seg_gather");
  require_same_length(src_offsets, src_lengths, "seg_gather");
  const Size n = seg_of.size();
  const Size nseg = src_offsets.size();
  Vec<T> out(n);
  const T* vp = values.data();
  const Int* op_ = src_offsets.data();
  const Int* lp = src_lengths.data();
  const Int* sp = seg_of.data();
  const Int* xp = local_index.data();
  T* rp = out.data();
  const auto ok = [&](Size i) {
    return sp[i] >= 0 && sp[i] < nseg && xp[i] >= 0 && xp[i] < lp[sp[i]];
  };
  const Size bad = parallel_first_failure(n, [&](Size i) {
    if (!ok(i)) return i;
    rp[i] = vp[op_[sp[i]] + xp[i]];
    return kNoFailure;
  });
  if (bad != kNoFailure) {
    const Int s = sp[bad];
    PROTEUS_REQUIRE(EvalError, s >= 0 && s < nseg,
                    "seg_gather segment id out of range");
    const Int x = xp[bad];
    PROTEUS_REQUIRE(EvalError, x >= 0 && x < lp[s],
                    "seq_index: index " + std::to_string(x + 1) +
                        " out of range for sequence of length " +
                        std::to_string(lp[s]));
  }
  stats().record(n);
  return out;
}

template IntVec gather_impl<Int>(const IntVec&, const IntVec&);
template RealVec gather_impl<Real>(const RealVec&, const IntVec&);
template BoolVec gather_impl<Bool>(const BoolVec&, const IntVec&);
template IntVec permute_impl<Int>(const IntVec&, const IntVec&);
template RealVec permute_impl<Real>(const RealVec&, const IntVec&);
template BoolVec permute_impl<Bool>(const BoolVec&, const IntVec&);
template IntVec scatter_impl<Int>(const IntVec&, const IntVec&, const IntVec&);
template RealVec scatter_impl<Real>(const RealVec&, const IntVec&,
                                    const RealVec&);
template BoolVec scatter_impl<Bool>(const BoolVec&, const IntVec&,
                                    const BoolVec&);
template IntVec seg_gather_impl<Int>(const IntVec&, const IntVec&,
                                     const IntVec&, const IntVec&,
                                     const IntVec&);
template RealVec seg_gather_impl<Real>(const RealVec&, const IntVec&,
                                       const IntVec&, const IntVec&,
                                       const IntVec&);
template BoolVec seg_gather_impl<Bool>(const BoolVec&, const IntVec&,
                                       const IntVec&, const IntVec&,
                                       const IntVec&);

}  // namespace detail

template <typename T>
Vec<T> reverse(const Vec<T>& values) {
  const Size n = values.size();
  Vec<T> out(n);
  const T* vp = values.data();
  T* op = out.data();
  detail::parallel_for(n, [&](Size i) { op[i] = vp[n - 1 - i]; });
  stats().record(n);
  return out;
}

template <typename T>
Vec<T> rotate(const Vec<T>& values, Int k) {
  const Size n = values.size();
  Vec<T> out(n);
  if (n == 0) return out;
  const T* vp = values.data();
  T* op = out.data();
  const Int shift = ((k % n) + n) % n;
  detail::parallel_for(n, [&](Size i) { op[i] = vp[(i + shift) % n]; });
  stats().record(n);
  return out;
}

template IntVec reverse<Int>(const IntVec&);
template RealVec reverse<Real>(const RealVec&);
template BoolVec reverse<Bool>(const BoolVec&);
template IntVec rotate<Int>(const IntVec&, Int);
template RealVec rotate<Real>(const RealVec&, Int);
template BoolVec rotate<Bool>(const BoolVec&, Int);

}  // namespace proteus::vl
