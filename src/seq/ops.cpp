#include "seq/ops.hpp"

#include "vl/vl.hpp"

namespace proteus::seq {

namespace {

void require_same_structure(const Array& a, const Array& b, const char* op) {
  PROTEUS_REQUIRE(RepresentationError, same_structure(a, b),
                  std::string(op) + ": arrays have different element structure");
}

}  // namespace

Array gather(const Array& a, const IntVec& idx) {
  const Int* ip = idx.data();
  const Size m = a.length();
  return gather_mapped(a, idx.size(), [&](auto&& emit) {
    const Size bad = vl::detail::parallel_first_failure(
        idx.size(), [&](Size i) {
          if (ip[i] < 0 || ip[i] >= m) return i;
          emit(i, 0, ip[i]);
          return vl::detail::kNoFailure;
        });
    if (bad == vl::detail::kNoFailure) return;
    const Int j = ip[bad];  // fails, with vl::gather's message
    PROTEUS_REQUIRE(EvalError, j >= 0 && j < m,
                    "gather index " + std::to_string(j) +
                        " out of range for vector of length " +
                        std::to_string(m));
  });
}

namespace detail {

Array gather_segments(std::span<const Array* const> sources,
                      const IntVec& from, const IntVec& at,
                      IntVec out_lengths) {
  const Size n = at.size();
  std::vector<IntVec> starts;
  std::vector<const Int*> sp;
  std::vector<const Array*> inner;
  starts.reserve(sources.size());
  for (const Array* s : sources) {
    starts.emplace_back(s->length());
    vl::detail::segment_starts(s->lengths(), starts.back().data());
    sp.push_back(starts.back().data());
    inner.push_back(&s->inner());
  }
  IntVec out_starts(n);
  const Size total =
      vl::detail::segment_starts(out_lengths, out_starts.data());
  const Int* fp = from.empty() ? nullptr : from.data();
  const Int* ap = at.data();
  const Int* lp = out_lengths.data();
  const Int* op = out_starts.data();
  const Int* const* from_starts = sp.data();
  Array elems = gather_mapped(inner, total, [&](auto&& emit) {
    vl::detail::parallel_for(n, [&](Size k) {
      const Size c = fp == nullptr ? 0 : fp[k];
      const Int src = from_starts[c][ap[k]];
      emit.run(op[k], c, src, lp[k]);
    });
  });
  vl::stats().record_segments(n);
  return Array::nested(std::move(out_lengths), std::move(elems));
}

}  // namespace detail

Array pack(const Array& a, const BoolVec& mask) {
  PROTEUS_REQUIRE(VectorError, a.length() == mask.size(),
                  "restrict: sequence and mask lengths differ");
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(vl::pack(a.int_values(), mask));
    case Array::Kind::kReal:
      return Array::reals(vl::pack(a.real_values(), mask));
    case Array::Kind::kBool:
      return Array::bools(vl::pack(a.bool_values(), mask));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) comps.push_back(pack(c, mask));
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return gather(a, vl::pack_indices(mask));
  }
  throw RepresentationError("restrict: corrupt array kind");
}

Array combine(const BoolVec& mask, const Array& t, const Array& f) {
  require_same_structure(t, f, "combine");
  PROTEUS_REQUIRE(VectorError, mask.size() == t.length() + f.length(),
                  "combine: #M must equal #V + #U");
  const Bool* mp = mask.data();
  const Array* sources[] = {&t, &f};
  // True positions take the next element of t, false ones the next of f:
  // a stream compaction of the mask, run in blocks that each start from
  // the number of true (and so false) positions before them.
  return gather_mapped(sources, mask.size(), [&](auto&& emit) {
    vl::detail::compact(
        mask.size(),
        [&](Size lo, Size hi) {
          return vl::detail::count_true(mp, lo, hi);
        },
        [&](Size survivors) {
          PROTEUS_REQUIRE(VectorError, survivors == t.length(),
                          "combine: mask true-count does not match #V");
        },
        [&](Size lo, Size hi, Size ti) {
          Size fi = lo - ti;
          for (Size i = lo; i < hi; ++i) {
            if (mp[i] != 0) {
              emit(i, 0, ti++);
            } else {
              emit(i, 1, fi++);
            }
          }
        });
  });
}

Array concat(const Array& a, const Array& b) {
  require_same_structure(a, b, "concat");
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(vl::concat(a.int_values(), b.int_values()));
    case Array::Kind::kReal:
      return Array::reals(vl::concat(a.real_values(), b.real_values()));
    case Array::Kind::kBool:
      return Array::bools(vl::concat(a.bool_values(), b.bool_values()));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (std::size_t c = 0; c < a.components().size(); ++c) {
        comps.push_back(concat(a.components()[c], b.components()[c]));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return Array::nested(vl::concat(a.lengths(), b.lengths()),
                           concat(a.inner(), b.inner()));
  }
  throw RepresentationError("concat: corrupt array kind");
}

Array empty_like(const Array& a) {
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(IntVec{});
    case Array::Kind::kReal:
      return Array::reals(RealVec{});
    case Array::Kind::kBool:
      return Array::bools(BoolVec{});
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) comps.push_back(empty_like(c));
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return Array::nested(IntVec{}, empty_like(a.inner()));
  }
  throw RepresentationError("empty_like: corrupt array kind");
}

Array broadcast_element(const Array& a, Size i, Size n) {
  PROTEUS_REQUIRE(VectorError, i >= 0 && i < a.length(),
                  "broadcast_element: index out of range");
  return gather(a, vl::dist(Int{i}, n));
}

Array seg_broadcast(const Array& a, const IntVec& counts) {
  PROTEUS_REQUIRE(VectorError, a.length() == counts.size(),
                  "dist: value and count sequences must have equal length");
  const Size n = counts.size();
  IntVec starts(n);
  const Size total = vl::detail::segment_starts(counts, starts.data());
  const Int* cp = counts.data();
  const Int* sp = starts.data();
  Array out = gather_mapped(a, total, [&](auto&& emit) {
    vl::detail::parallel_for(n, [&](Size s) {
      const Int to = sp[s];
      const Int len = cp[s];
      for (Int r = 0; r < len; ++r) emit(to + r, 0, s);
    });
  });
  vl::stats().record_segments(n);
  return out;
}

Array element(const Array& a, Size i) { return broadcast_element(a, i, 1); }

Array slice(const Array& a, Size lo, Size len) {
  PROTEUS_REQUIRE(VectorError, lo >= 0 && len >= 0 && lo + len <= a.length(),
                  "slice: range out of bounds");
  return gather(a, vl::iota(len, lo));
}

bool same_structure(const Array& a, const Array& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Array::Kind::kInt:
    case Array::Kind::kReal:
    case Array::Kind::kBool:
      return true;
    case Array::Kind::kTuple: {
      if (a.components().size() != b.components().size()) return false;
      for (std::size_t c = 0; c < a.components().size(); ++c) {
        if (!same_structure(a.components()[c], b.components()[c])) {
          return false;
        }
      }
      return true;
    }
    case Array::Kind::kNested:
      return same_structure(a.inner(), b.inner());
  }
  return false;
}

}  // namespace proteus::seq
