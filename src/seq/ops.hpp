// ops.hpp — structural kernels on the vector representation.
//
// Each operation here lifts a flat vl primitive through the element
// structure of an Array: scalar leaves run the vl kernel once, tuple
// elements run it per component, and sequence elements run it on the
// descriptor and recurse on the inner elements through the descriptor.
// The data movement ones (gather, combine, seg_broadcast, and the depth-1
// sequence kernels built on gather_mapped) make one pass per level, as
// CVL's primitives do, and record that pass once in vl::stats().
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "seq/nested.hpp"
#include "vl/kernel.hpp"

namespace proteus::seq {

/// The one-pass structural gather behind the data-movement kernels.
///
/// Builds the n-element Array whose element k is element p of
/// *sources[c], for the (k, c, p) triples `map` produces: map(emit) calls
/// emit(k, c, p) exactly once for every k in [0, n), or emit.run(k, c,
/// p, len) for the len slots from k on that copy the len elements from p
/// on (a whole segment: a plain copy at a scalar leaf). `map` runs its own
/// loop — over segments, through vl::detail::parallel_for or
/// parallel_first_failure — and validates as it goes; it throws any
/// failure after its loop, so nothing has been read out of range and no
/// exception crosses a parallel region. All sources share one element
/// structure (callers check). Scalar leaves are written directly; tuple
/// elements repeat the map per component; sequence elements run it once
/// to place whole segments and recurse on the inner elements. Records n
/// elements of work per level.
template <typename Map>
Array gather_mapped(std::span<const Array* const> sources, Size n, Map&& map);

/// gather_mapped from a single source (c is always 0).
template <typename Map>
Array gather_mapped(const Array& source, Size n, Map&& map) {
  const Array* one[] = {&source};
  return gather_mapped(std::span<const Array* const>(one), n, map);
}

/// out[i] = a[idx[i]] (0-origin element selection; duplicates allowed).
[[nodiscard]] Array gather(const Array& a, const IntVec& idx);

/// Elements of `a` at the true positions of `mask` — the paper's
/// restrict(V, M) on the representation.
[[nodiscard]] Array pack(const Array& a, const BoolVec& mask);

/// The paper's combine(M, V, U): #mask == t.length() + f.length();
/// result takes from `t` at true positions and `f` at false positions.
[[nodiscard]] Array combine(const BoolVec& mask, const Array& t,
                            const Array& f);

/// Concatenation of two conformable (same element structure) arrays.
[[nodiscard]] Array concat(const Array& a, const Array& b);

/// The empty array with the same element structure as `a` (rule R2d's
/// empty_frame on representations).
[[nodiscard]] Array empty_like(const Array& a);

/// n copies of element i of `a` — dist(c, n) for a non-scalar c.
[[nodiscard]] Array broadcast_element(const Array& a, Size i, Size n);

/// dist^1: element i of `a` replicated counts[i] times, concatenated.
[[nodiscard]] Array seg_broadcast(const Array& a, const IntVec& counts);

/// Single element i of `a` as a one-element array.
[[nodiscard]] Array element(const Array& a, Size i);

/// Elements [lo, lo+len) of `a`.
[[nodiscard]] Array slice(const Array& a, Size lo, Size len);

/// Structural conformability (same kinds/arity at every level); value
/// lengths are not compared.
[[nodiscard]] bool same_structure(const Array& a, const Array& b);

namespace detail {

template <typename T>
const vl::Vec<T>& leaf_values(const Array& a) {
  if constexpr (std::is_same_v<T, Int>) {
    return a.int_values();
  } else if constexpr (std::is_same_v<T, Real>) {
    return a.real_values();
  } else {
    return a.bool_values();
  }
}

/// The emit of a scalar leaf level: writes the element itself.
template <typename T>
struct LeafEmit {
  T* out;
  const T* const* from;  ///< one values pointer per source

  void operator()(Size k, Size c, Int p) const { out[k] = from[c][p]; }
  void run(Size k, Size c, Int p, Int len) const {
    std::copy_n(from[c] + p, len, out + k);
  }
};

/// The emit of a sequence-element level: records where each output
/// segment comes from, for gather_segments.
struct SegmentEmit {
  Int* from;  ///< source per slot; null for a single source
  Int* at;
  Int* lengths;
  const Int* const* source_lengths;

  void operator()(Size k, Size c, Int p) const {
    if (from != nullptr) from[k] = c;
    at[k] = p;
    lengths[k] = source_lengths[c][p];
  }
  void run(Size k, Size c, Int p, Int len) const {
    for (Int r = 0; r < len; ++r) (*this)(k + r, c, p + r);
  }
};

template <typename T, typename Map>
vl::Vec<T> gather_leaf(std::span<const Array* const> sources, Size n,
                       Map& map) {
  std::vector<const T*> from;
  from.reserve(sources.size());
  for (const Array* s : sources) from.push_back(leaf_values<T>(*s).data());
  vl::Vec<T> out(n);
  map(LeafEmit<T>{out.data(), from.data()});
  vl::stats().record(n);
  return out;
}

/// The sequence-element level of gather_mapped: output slot k is segment
/// at[k] of *sources[from[k]] (from is empty for a single source), whose
/// length is out_lengths[k]. Copies the segments' inner elements.
[[nodiscard]] Array gather_segments(std::span<const Array* const> sources,
                                    const IntVec& from, const IntVec& at,
                                    IntVec out_lengths);

}  // namespace detail

template <typename Map>
Array gather_mapped(std::span<const Array* const> sources, Size n,
                    Map&& map) {
  const Array& first = *sources.front();
  switch (first.kind()) {
    case Array::Kind::kInt:
      return Array::ints(detail::gather_leaf<Int>(sources, n, map));
    case Array::Kind::kReal:
      return Array::reals(detail::gather_leaf<Real>(sources, n, map));
    case Array::Kind::kBool:
      return Array::bools(detail::gather_leaf<Bool>(sources, n, map));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      std::vector<const Array*> part(sources.size());
      for (std::size_t j = 0; j < first.components().size(); ++j) {
        for (std::size_t c = 0; c < sources.size(); ++c) {
          part[c] = &sources[c]->components()[j];
        }
        comps.push_back(gather_mapped(part, n, map));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      const bool many = sources.size() > 1;
      std::vector<const Int*> lengths;
      for (const Array* s : sources) lengths.push_back(s->lengths().data());
      IntVec from(many ? n : 0);
      IntVec at(n);
      IntVec out_lengths(n);
      map(detail::SegmentEmit{many ? from.data() : nullptr, at.data(),
                              out_lengths.data(), lengths.data()});
      vl::stats().record(n);
      return detail::gather_segments(sources, from, at,
                                     std::move(out_lengths));
    }
  }
  throw RepresentationError("gather: corrupt array kind");
}

}  // namespace proteus::seq
