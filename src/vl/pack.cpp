#include "vl/pack.hpp"

#include "vl/kernel.hpp"

namespace proteus::vl {

namespace detail {

namespace {

/// value(i) for every true mask[i], in order.
template <typename T, typename Value>
Vec<T> pack_with(const BoolVec& mask, Value&& value) {
  const Bool* mp = mask.data();
  Vec<T> out;
  compact(
      mask.size(), [&](Size lo, Size hi) { return count_true(mp, lo, hi); },
      [&](Size total) { out = Vec<T>(total); },
      [&](Size lo, Size hi, Size k) {
        T* rp = out.data();
        for (Size i = lo; i < hi; ++i) {
          if (mp[i]) rp[k++] = value(i);
        }
      });
  stats().record(mask.size());
  return out;
}

}  // namespace

template <typename T>
Vec<T> pack_impl(const Vec<T>& values, const BoolVec& mask) {
  require_same_length(values, mask, "restrict");
  const T* vp = values.data();
  return pack_with<T>(mask, [vp](Size i) { return vp[i]; });
}

template <typename T>
Vec<T> combine_impl(const BoolVec& mask, const Vec<T>& when_true,
                    const Vec<T>& when_false) {
  PROTEUS_REQUIRE(VectorError,
                  mask.size() == when_true.size() + when_false.size(),
                  "combine: #M must equal #V + #U");
  const Bool* mp = mask.data();
  const T* tp = when_true.data();
  const T* fp = when_false.data();
  Vec<T> out;
  compact(
      mask.size(), [&](Size lo, Size hi) { return count_true(mp, lo, hi); },
      [&](Size survivors) {
        PROTEUS_REQUIRE(VectorError, survivors == when_true.size(),
                        "combine: mask true-count does not match #V");
        out = Vec<T>(mask.size());
      },
      [&](Size lo, Size hi, Size t) {
        // Element i comes from when_true if mask[i], indexed by the number
        // of true positions before i; otherwise from when_false, indexed
        // by the number of false positions before i.
        T* rp = out.data();
        Size f = lo - t;
        for (Size i = lo; i < hi; ++i) rp[i] = mp[i] ? tp[t++] : fp[f++];
      });
  stats().record(mask.size());
  return out;
}

template IntVec pack_impl<Int>(const IntVec&, const BoolVec&);
template RealVec pack_impl<Real>(const RealVec&, const BoolVec&);
template BoolVec pack_impl<Bool>(const BoolVec&, const BoolVec&);
template IntVec combine_impl<Int>(const BoolVec&, const IntVec&,
                                  const IntVec&);
template RealVec combine_impl<Real>(const BoolVec&, const RealVec&,
                                    const RealVec&);
template BoolVec combine_impl<Bool>(const BoolVec&, const BoolVec&,
                                    const BoolVec&);

}  // namespace detail

IntVec pack_indices(const BoolVec& mask) {
  return detail::pack_with<Int>(mask, [](Size i) { return i; });
}

IntVec seg_pack_lengths(const IntVec& seg_lengths, const BoolVec& mask) {
  const Size nseg = seg_lengths.size();
  IntVec out(nseg);  // the segment starts first, then the counts in place
  Int* op = out.data();
  PROTEUS_REQUIRE(VectorError,
                  detail::segment_starts(seg_lengths, op) == mask.size(),
                  "seg_pack_lengths: descriptor does not cover the vector");
  const Int* lp = seg_lengths.data();
  const Bool* mp = mask.data();
  detail::parallel_for(nseg, [&](Size s) {
    op[s] = static_cast<Int>(detail::count_true(mp, op[s], op[s] + lp[s]));
  });
  stats().record(mask.size());
  stats().record_segments(nseg);
  return out;
}

template <typename T>
Vec<T> concat(const Vec<T>& a, const Vec<T>& b) {
  Vec<T> out(a.size() + b.size());
  const T* ap = a.data();
  const T* bp = b.data();
  T* op = out.data();
  detail::parallel_for(a.size(), [&](Size i) { op[i] = ap[i]; });
  detail::parallel_for(b.size(), [&](Size i) { op[a.size() + i] = bp[i]; });
  stats().record(out.size());
  return out;
}

template IntVec concat<Int>(const IntVec&, const IntVec&);
template RealVec concat<Real>(const RealVec&, const RealVec&);
template BoolVec concat<Bool>(const BoolVec&, const BoolVec&);

}  // namespace proteus::vl
