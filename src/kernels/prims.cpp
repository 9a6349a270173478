#include "kernels/prims.hpp"

#include <cmath>
#include <functional>
#include <utility>

#include "rt/governor.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels {

using lang::Prim;
using vl::Bool;
using vl::BoolVec;
using vl::IntVec;
using vl::RealVec;

namespace {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

[[noreturn]] void index_fail(Int i, Size n) {
  eval_fail("seq_index: index " + std::to_string(i) +
            " out of range for sequence of length " + std::to_string(n));
}

Int checked_index0(Int i, Size n) {
  if (i < 1 || i > n) index_fail(i, n);
  return i - 1;
}

// --- depth-0 scalar primitives -------------------------------------------------

VValue scalar2(Prim op, const VValue& a, const VValue& b) {
  if (a.is_int() && b.is_int()) {
    Int x = a.as_int();
    Int y = b.as_int();
    switch (op) {
      case Prim::kAdd:
        return VValue::ints(x + y);
      case Prim::kSub:
        return VValue::ints(x - y);
      case Prim::kMul:
        return VValue::ints(x * y);
      case Prim::kDiv:
        if (y == 0) eval_fail("division by zero");
        return VValue::ints(vl::detail::checked_div(x, y));
      case Prim::kMod:
        if (y == 0) eval_fail("mod by zero");
        return VValue::ints(vl::detail::checked_mod(x, y));
      case Prim::kMin:
        return VValue::ints(x < y ? x : y);
      case Prim::kMax:
        return VValue::ints(x < y ? y : x);
      case Prim::kEq:
        return VValue::bools(x == y);
      case Prim::kNe:
        return VValue::bools(x != y);
      case Prim::kLt:
        return VValue::bools(x < y);
      case Prim::kLe:
        return VValue::bools(x <= y);
      case Prim::kGt:
        return VValue::bools(x > y);
      case Prim::kGe:
        return VValue::bools(x >= y);
      default:
        break;
    }
  } else if (a.is_real() && b.is_real()) {
    Real x = a.as_real();
    Real y = b.as_real();
    switch (op) {
      case Prim::kAdd:
        return VValue::reals(x + y);
      case Prim::kSub:
        return VValue::reals(x - y);
      case Prim::kMul:
        return VValue::reals(x * y);
      case Prim::kDiv:
        return VValue::reals(x / y);
      case Prim::kMin:
        return VValue::reals(x < y ? x : y);
      case Prim::kMax:
        return VValue::reals(x < y ? y : x);
      case Prim::kEq:
        return VValue::bools(x == y);
      case Prim::kNe:
        return VValue::bools(x != y);
      case Prim::kLt:
        return VValue::bools(x < y);
      case Prim::kLe:
        return VValue::bools(x <= y);
      case Prim::kGt:
        return VValue::bools(x > y);
      case Prim::kGe:
        return VValue::bools(x >= y);
      default:
        break;
    }
  } else if (a.is_bool() && b.is_bool()) {
    switch (op) {
      case Prim::kAnd:
        return VValue::bools(a.as_bool() && b.as_bool());
      case Prim::kOr:
        return VValue::bools(a.as_bool() || b.as_bool());
      case Prim::kEq:
        return VValue::bools(a.as_bool() == b.as_bool());
      case Prim::kNe:
        return VValue::bools(a.as_bool() != b.as_bool());
      default:
        break;
    }
  }
  eval_fail(std::string("no scalar overload of '") + prim_name(op) + "'");
}

// --- depth-1 elementwise kernels ------------------------------------------------

Array ew_unary(Prim op, const Array& a) {
  switch (a.kind()) {
    case Array::Kind::kInt: {
      const IntVec& v = a.int_values();
      switch (op) {
        case Prim::kNeg:
          return Array::ints(vl::neg(v));
        case Prim::kToReal:
          return Array::reals(vl::to_real(v));
        default:
          break;
      }
      break;
    }
    case Array::Kind::kReal: {
      const RealVec& v = a.real_values();
      switch (op) {
        case Prim::kNeg:
          return Array::reals(vl::neg(v));
        case Prim::kToInt:
          return Array::ints(vl::to_int(v));
        case Prim::kSqrt:
          return Array::reals(vl::sqrt(v));
        default:
          break;
      }
      break;
    }
    case Array::Kind::kBool:
      if (op == Prim::kNot) {
        return Array::bools(vl::logical_not(a.bool_values()));
      }
      break;
    default:
      break;
  }
  eval_fail(std::string("no depth-1 unary kernel for '") + prim_name(op) +
            "'");
}

Array ew_binary(Prim op, const Array& a, const Array& b) {
  if (a.kind() == Array::Kind::kInt && b.kind() == Array::Kind::kInt) {
    const IntVec& x = a.int_values();
    const IntVec& y = b.int_values();
    switch (op) {
      case Prim::kAdd:
        return Array::ints(vl::add(x, y));
      case Prim::kSub:
        return Array::ints(vl::sub(x, y));
      case Prim::kMul:
        return Array::ints(vl::mul(x, y));
      case Prim::kDiv:
        return Array::ints(vl::div(x, y));
      case Prim::kMod:
        return Array::ints(vl::mod(x, y));
      case Prim::kMin:
        return Array::ints(vl::min(x, y));
      case Prim::kMax:
        return Array::ints(vl::max(x, y));
      case Prim::kEq:
        return Array::bools(vl::eq(x, y));
      case Prim::kNe:
        return Array::bools(vl::ne(x, y));
      case Prim::kLt:
        return Array::bools(vl::lt(x, y));
      case Prim::kLe:
        return Array::bools(vl::le(x, y));
      case Prim::kGt:
        return Array::bools(vl::gt(x, y));
      case Prim::kGe:
        return Array::bools(vl::ge(x, y));
      default:
        break;
    }
  } else if (a.kind() == Array::Kind::kReal &&
             b.kind() == Array::Kind::kReal) {
    const RealVec& x = a.real_values();
    const RealVec& y = b.real_values();
    switch (op) {
      case Prim::kAdd:
        return Array::reals(vl::add(x, y));
      case Prim::kSub:
        return Array::reals(vl::sub(x, y));
      case Prim::kMul:
        return Array::reals(vl::mul(x, y));
      case Prim::kDiv:
        return Array::reals(vl::div(x, y));
      case Prim::kMin:
        return Array::reals(vl::min(x, y));
      case Prim::kMax:
        return Array::reals(vl::max(x, y));
      case Prim::kEq:
        return Array::bools(vl::eq(x, y));
      case Prim::kNe:
        return Array::bools(vl::ne(x, y));
      case Prim::kLt:
        return Array::bools(vl::lt(x, y));
      case Prim::kLe:
        return Array::bools(vl::le(x, y));
      case Prim::kGt:
        return Array::bools(vl::gt(x, y));
      case Prim::kGe:
        return Array::bools(vl::ge(x, y));
      default:
        break;
    }
  } else if (a.kind() == Array::Kind::kBool &&
             b.kind() == Array::Kind::kBool) {
    const BoolVec& x = a.bool_values();
    const BoolVec& y = b.bool_values();
    switch (op) {
      case Prim::kAnd:
        return Array::bools(vl::logical_and(x, y));
      case Prim::kOr:
        return Array::bools(vl::logical_or(x, y));
      case Prim::kEq:
        return Array::bools(vl::logical_not(vl::logical_xor(x, y)));
      case Prim::kNe:
        return Array::bools(vl::logical_xor(x, y));
      default:
        break;
    }
  }
  eval_fail(std::string("no depth-1 binary kernel for '") + prim_name(op) +
            "'");
}

// --- depth-1 sequence kernels ---------------------------------------------------
//
// Each is one loop over the frame's segment descriptor (seq::gather_mapped
// for the data movement), with its index checks folded in: the first bad
// index, in order, is reported after the loop on every backend.

using vl::detail::kNoFailure;
using vl::detail::parallel_first_failure;
using vl::detail::parallel_for;
using vl::detail::segment_starts;

/// The nested Int frame whose slot s is first(s), first(s)+1, ... with
/// len(s) elements (none when len(s) < 1): range1^1 and range^1.
template <typename Len, typename First>
Array ranges(Size nseg, Len&& len, First&& first) {
  IntVec lens(nseg);
  IntVec starts(nseg);
  Int* lp = lens.data();
  Int* sp = starts.data();
  Int total = 0;
  for (Size s = 0; s < nseg; ++s) {
    const Int n = len(s);
    lp[s] = n < 0 ? 0 : n;
    sp[s] = total;
    total += lp[s];
  }
  IntVec values(total);
  Int* vp = values.data();
  parallel_for(nseg, [&](Size s) {
    const Int base = first(s);
    Int* to = vp + sp[s];
    const Int count = lp[s];
    for (Int r = 0; r < count; ++r) to[r] = base + r;
  });
  vl::stats().record(total);
  vl::stats().record_segments(nseg);
  return Array::nested(std::move(lens), Array::ints(std::move(values)));
}

Array range1_1(const Array& ns) {
  const Int* np = ns.int_values().data();
  return ranges(
      ns.length(), [np](Size s) { return np[s]; },
      [](Size) { return Int{1}; });
}

Array range_1(const Array& lo, const Array& hi) {
  const IntVec& l = lo.int_values();
  const IntVec& h = hi.int_values();
  vl::require_same_length(h, l, "sub");
  const Int* lp = l.data();
  const Int* hp = h.data();
  return ranges(
      l.size(), [lp, hp](Size s) { return hp[s] - lp[s] + 1; },
      [lp](Size s) { return lp[s]; });
}

Array dist_1(const Array& values, const Array& counts) {
  const IntVec& raw = counts.int_values();
  IntVec lens(raw.size());
  const Int* rp = raw.data();
  Int* lp = lens.data();
  parallel_for(raw.size(), [&](Size s) { lp[s] = rp[s] < 0 ? 0 : rp[s]; });
  Array elems = seq::seg_broadcast(values, lens);
  return Array::nested(std::move(lens), std::move(elems));
}

/// Element start(k) + idx[k] - 1 of `source` for every slot k, with the
/// 1-origin idx[k] checked against limit(k).
template <typename Start, typename Limit>
Array index_gather(const Array& source, const IntVec& idx, Start&& start,
                   Limit&& limit) {
  const Int* ip = idx.data();
  return seq::gather_mapped(source, idx.size(), [&](auto&& emit) {
    const Size bad = parallel_first_failure(idx.size(), [&](Size k) {
      if (ip[k] < 1 || ip[k] > limit(k)) return k;
      emit(k, 0, start(k) + ip[k] - 1);
      return kNoFailure;
    });
    if (bad != kNoFailure) index_fail(ip[bad], limit(bad));
  });
}

Array seq_index_1_frame(const Array& s, const Array& idx) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "seq_index^1");
  IntVec starts(lens.size());
  segment_starts(lens, starts.data());
  const Int* lp = lens.data();
  const Int* sp = starts.data();
  return index_gather(
      s.inner(), i, [sp](Size k) { return sp[k]; },
      [lp](Size k) { return lp[k]; });
}

Array seq_index_1_shared(const Array& source, const Array& idx) {
  const Size len = source.length();
  return index_gather(
      source, idx.int_values(), [](Size) { return Int{0}; },
      [len](Size) { return len; });
}

/// seq_index_inner^1: per-slot gather from each slot's own row, without
/// replicating the rows (the generalized Section 4.5 optimization).
Array seq_index_inner_1(const Array& v, const Array& idx) {
  const IntVec& rows = v.lengths();
  const IntVec& per_slot = idx.lengths();
  vl::require_same_length(rows, per_slot, "seq_index_inner^1");
  const IntVec& i = idx.inner().int_values();
  const Size nseg = rows.size();
  IntVec row_starts(nseg);
  IntVec idx_starts(nseg);
  segment_starts(rows, row_starts.data());
  segment_starts(per_slot, idx_starts.data());
  const Int* rp = rows.data();
  const Int* np = per_slot.data();
  const Int* ip = i.data();
  const Int* rs = row_starts.data();
  const Int* is = idx_starts.data();
  Array elems = seq::gather_mapped(v.inner(), i.size(), [&](auto&& emit) {
    const Size bad = parallel_first_failure(nseg, [&](Size s) {
      const Int row = rs[s] - 1;
      const Int limit = rp[s];
      const Int end = is[s] + np[s];
      for (Int k = is[s]; k < end; ++k) {
        if (ip[k] < 1 || ip[k] > limit) return s;
        emit(k, 0, row + ip[k]);
      }
      return kNoFailure;
    });
    if (bad == kNoFailure) return;
    for (Int k = is[bad];; ++k) {
      if (ip[k] < 1 || ip[k] > rp[bad]) index_fail(ip[k], rp[bad]);
    }
  });
  vl::stats().record_segments(nseg);
  return Array::nested(per_slot, std::move(elems));
}

Array restrict_1(const Array& v, const Array& m) {
  PROTEUS_REQUIRE(EvalError, v.lengths() == m.lengths(),
                  "restrict^1: non-conformable frames");
  const BoolVec& mask = m.inner().bool_values();
  IntVec new_lens = vl::seg_pack_lengths(v.lengths(), mask);
  return Array::nested(std::move(new_lens), seq::pack(v.inner(), mask));
}

Array combine_1(const Array& m, const Array& t, const Array& f) {
  const BoolVec& mask = m.inner().bool_values();
  return Array::nested(m.lengths(), seq::combine(mask, t.inner(), f.inner()));
}

Array update_1(const Array& s, const Array& idx, const Array& x) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  vl::require_same_length(lens, i, "update^1");
  PROTEUS_REQUIRE(RepresentationError, seq::same_structure(s.inner(), x),
                  "concat: arrays have different element structure");
  PROTEUS_REQUIRE(EvalError, x.length() == lens.size(),
                  "update^1: one replacement per slot");
  const Size nseg = lens.size();
  IntVec starts(nseg);
  const Size total = segment_starts(lens, starts.data());
  const Int* lp = lens.data();
  const Int* ip = i.data();
  const Int* sp = starts.data();
  // Slot k keeps its own elements except at index i[k], which takes x[k].
  const Array* sources[] = {&s.inner(), &x};
  Array elems = seq::gather_mapped(sources, total, [&](auto&& emit) {
    const Size bad = parallel_first_failure(nseg, [&](Size k) {
      if (ip[k] < 1 || ip[k] > lp[k]) return k;
      const Int at = sp[k] + ip[k] - 1;
      emit.run(sp[k], 0, sp[k], ip[k] - 1);
      emit(at, 1, k);
      emit.run(at + 1, 0, at + 1, lp[k] - ip[k]);
      return kNoFailure;
    });
    if (bad != kNoFailure) index_fail(ip[bad], lp[bad]);
  });
  vl::stats().record_segments(nseg);
  return Array::nested(lens, std::move(elems));
}

Array concat_1(const Array& a, const Array& b) {
  const IntVec& la = a.lengths();
  const IntVec& lb = b.lengths();
  vl::require_same_length(la, lb, "concat^1");
  PROTEUS_REQUIRE(RepresentationError,
                  seq::same_structure(a.inner(), b.inner()),
                  "concat: arrays have different element structure");
  const Size nseg = la.size();
  IntVec a_starts(nseg);
  IntVec b_starts(nseg);
  IntVec out_lens(nseg);
  const Size total = segment_starts(la, a_starts.data()) +
                     segment_starts(lb, b_starts.data());
  const Int* ap = la.data();
  const Int* bp = lb.data();
  const Int* as = a_starts.data();
  const Int* bs = b_starts.data();
  Int* op = out_lens.data();
  parallel_for(nseg, [&](Size s) { op[s] = ap[s] + bp[s]; });
  // Slot s of the result starts where the a and b elements before it end.
  const Array* sources[] = {&a.inner(), &b.inner()};
  Array elems = seq::gather_mapped(sources, total, [&](auto&& emit) {
    parallel_for(nseg, [&](Size s) {
      const Int to = as[s] + bs[s];
      emit.run(to, 0, as[s], ap[s]);
      emit.run(to + ap[s], 1, bs[s], bp[s]);
    });
  });
  vl::stats().record_segments(nseg);
  return Array::nested(std::move(out_lens), std::move(elems));
}

/// reverse^1: per-slot reversal (each segment mirrored in place).
Array reverse_1(const Array& v) {
  const IntVec& lens = v.lengths();
  const Size nseg = lens.size();
  IntVec starts(nseg);
  const Size total = segment_starts(lens, starts.data());
  const Int* lp = lens.data();
  const Int* sp = starts.data();
  Array elems = seq::gather_mapped(v.inner(), total, [&](auto&& emit) {
    parallel_for(nseg, [&](Size s) {
      const Int start = sp[s];
      const Int len = lp[s];
      const Int last = start + len - 1;
      for (Int r = 0; r < len; ++r) emit(start + r, 0, last - r);
    });
  });
  vl::stats().record_segments(nseg);
  return Array::nested(lens, std::move(elems));
}

/// zip^1: per-slot zip — same descriptor, tuple of the inner arrays.
Array zip_1(const Array& x, const Array& y) {
  PROTEUS_REQUIRE(EvalError, x.lengths() == y.lengths(),
                  "zip^1: non-conformable frames (per-slot lengths differ)");
  return Array::nested(x.lengths(), Array::tuple({x.inner(), y.inner()}));
}

Array flatten_1(const Array& v) {
  PROTEUS_REQUIRE(EvalError, v.inner().kind() == Array::Kind::kNested,
                  "flatten^1: elements are not sequences");
  const Array& inner = v.inner();
  IntVec new_lens = vl::seg_reduce_add(inner.lengths(), v.lengths());
  return Array::nested(std::move(new_lens), inner.inner());
}

Array seq_cons_1(const std::vector<Array>& elems) {
  PROTEUS_REQUIRE(EvalError, !elems.empty(),
                  "seq_cons^1 with no element frames");
  const Size n = elems[0].length();
  const Size k = static_cast<Size>(elems.size());
  std::vector<const Array*> sources;
  sources.reserve(elems.size());
  for (const Array& e : elems) {
    PROTEUS_REQUIRE(RepresentationError, seq::same_structure(elems[0], e),
                    "concat: arrays have different element structure");
    PROTEUS_REQUIRE(EvalError, e.length() == n,
                    "seq_cons^1: element frames differ in length");
    sources.push_back(&e);
  }
  // Slot s of the result is [elems[0][s], ..., elems[k-1][s]].
  Array all = seq::gather_mapped(sources, n * k, [&](auto&& emit) {
    parallel_for(n, [&](Size s) {
      for (Size c = 0; c < k; ++c) emit(s * k + c, c, s);
    });
  });
  return Array::nested(IntVec(n, k), std::move(all));
}

Array reduce_1(Prim op, const Array& v) {
  const IntVec& lens = v.lengths();
  const Array& inner = v.inner();
  if (op == Prim::kSum) {
    if (inner.kind() == Array::Kind::kReal) {
      return Array::reals(vl::seg_reduce_add(inner.real_values(), lens));
    }
    return Array::ints(vl::seg_reduce_add(inner.int_values(), lens));
  }
  if (op == Prim::kMaxVal || op == Prim::kMinVal) {
    if (!vl::all(vl::gt(lens, Int{0})) && lens.size() > 0) {
      eval_fail("maxval/minval of an empty sequence");
    }
    if (inner.kind() == Array::Kind::kReal) {
      const RealVec& x = inner.real_values();
      return Array::reals(op == Prim::kMaxVal ? vl::seg_reduce_max(x, lens)
                                              : vl::seg_reduce_min(x, lens));
    }
    const IntVec& x = inner.int_values();
    return Array::ints(op == Prim::kMaxVal ? vl::seg_reduce_max(x, lens)
                                           : vl::seg_reduce_min(x, lens));
  }
  if (op == Prim::kAnyV) {
    return Array::bools(vl::seg_reduce_or(inner.bool_values(), lens));
  }
  if (op == Prim::kAllV) {
    return Array::bools(vl::seg_reduce_and(inner.bool_values(), lens));
  }
  eval_fail(std::string("no depth-1 reduction kernel for '") + prim_name(op) +
            "'");
}

}  // namespace

// --- depth-0 entry ---------------------------------------------------------------

VValue apply_prim0(Prim op, const std::vector<VValue>& args) {
  rt::poll("kernel");  // cooperative check for direct kernel-table callers
  switch (op) {
    case Prim::kAdd:
    case Prim::kSub:
    case Prim::kMul:
    case Prim::kDiv:
    case Prim::kMod:
    case Prim::kMin:
    case Prim::kMax:
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
      return scalar2(op, args[0], args[1]);
    case Prim::kNeg:
      return args[0].is_int() ? VValue::ints(-args[0].as_int())
                              : VValue::reals(-args[0].as_real());
    case Prim::kNot:
      return VValue::bools(!args[0].as_bool());
    case Prim::kSqrt:
      return VValue::reals(std::sqrt(args[0].as_real()));
    case Prim::kToReal:
      return VValue::reals(static_cast<Real>(args[0].as_int()));
    case Prim::kToInt:
      return VValue::ints(static_cast<Int>(args[0].as_real()));
    case Prim::kLength:
      return VValue::ints(args[0].as_seq().length());
    case Prim::kRange:
      return VValue::seq(Array::ints(
          vl::range(args[0].as_int(), args[1].as_int(), 1)));
    case Prim::kRange1:
      return VValue::seq(Array::ints(vl::iota1(args[0].as_int())));
    case Prim::kRestrict: {
      const Array& v = args[0].as_seq();
      const Array& m = args[1].as_seq();
      PROTEUS_REQUIRE(EvalError, v.length() == m.length(),
                      "restrict: sequence and mask lengths differ");
      return VValue::seq(seq::pack(v, m.bool_values()));
    }
    case Prim::kCombine: {
      const Array& m = args[0].as_seq();
      return VValue::seq(
          seq::combine(m.bool_values(), args[1].as_seq(), args[2].as_seq()));
    }
    case Prim::kDist: {
      Int r = args[1].as_int();
      return VValue::seq(materialize(args[0], r < 0 ? 0 : r));
    }
    case Prim::kSeqIndex: {
      const Array& s = args[0].as_seq();
      Int i = checked_index0(args[1].as_int(), s.length());
      return element_value(s, i);
    }
    case Prim::kSeqIndexInner:
      return VValue::seq(
          seq_index_1_shared(args[0].as_seq(), args[1].as_seq()));
    case Prim::kSeqUpdate: {
      const Array& s = args[0].as_seq();
      Int i = checked_index0(args[1].as_int(), s.length());
      Array x = materialize(args[2], 1);
      IntVec map = vl::scatter(vl::iota(s.length(), 0), IntVec{i},
                               IntVec{s.length()});
      return VValue::seq(seq::gather(seq::concat(s, x), map));
    }
    case Prim::kFlatten:
      return VValue::seq(seq::extract(args[0].as_seq(), 1));
    case Prim::kConcat:
      return VValue::seq(seq::concat(args[0].as_seq(), args[1].as_seq()));
    case Prim::kSum: {
      const Array& v = args[0].as_seq();
      if (v.kind() == Array::Kind::kReal) {
        return VValue::reals(vl::reduce_add(v.real_values()));
      }
      return VValue::ints(vl::reduce_add(v.int_values()));
    }
    case Prim::kMaxVal:
    case Prim::kMinVal: {
      const Array& v = args[0].as_seq();
      PROTEUS_REQUIRE(EvalError, v.length() > 0,
                      "maxval/minval of an empty sequence");
      if (v.kind() == Array::Kind::kReal) {
        return VValue::reals(op == Prim::kMaxVal
                                 ? vl::reduce_max(v.real_values())
                                 : vl::reduce_min(v.real_values()));
      }
      return VValue::ints(op == Prim::kMaxVal ? vl::reduce_max(v.int_values())
                                              : vl::reduce_min(v.int_values()));
    }
    case Prim::kReverse: {
      const Array& v = args[0].as_seq();
      if (v.length() == 0) return VValue::seq(v);
      IntVec idx = vl::reverse(vl::iota(v.length(), 0));
      return VValue::seq(seq::gather(v, idx));
    }
    case Prim::kZip: {
      const Array& x = args[0].as_seq();
      const Array& y = args[1].as_seq();
      PROTEUS_REQUIRE(EvalError, x.length() == y.length(),
                      "zip: sequences have different lengths");
      return VValue::seq(Array::tuple({x, y}));
    }
    case Prim::kAnyV:
      return VValue::bools(vl::any(args[0].as_seq().bool_values()));
    case Prim::kAllV:
      return VValue::bools(vl::all(args[0].as_seq().bool_values()));
    case Prim::kExtract:
      return VValue::seq(
          seq::extract(args[0].as_seq(), static_cast<int>(args[1].as_int())));
    case Prim::kInsert:
      return VValue::seq(seq::insert(args[0].as_seq(), args[1].as_seq(),
                                     static_cast<int>(args[2].as_int())));
    case Prim::kAnyTrue:
      return VValue::bools(any_true_frame(args[0]));
    case Prim::kEmptyFrame:
      eval_fail("empty_frame requires its frame depth and type (executor bug)");
  }
  eval_fail("corrupt primitive opcode");
}

// --- depth-1 entry ---------------------------------------------------------------

VValue apply_prim1(Prim op, const std::vector<VValue>& args,
                   const std::vector<std::uint8_t>& lifted,
                   const PrimOptions& options) {
  rt::poll("kernel");  // cooperative check for direct kernel-table callers
  auto is_lifted = [&](std::size_t i) {
    return lifted.empty() || lifted[i] != 0;
  };

  // Section 4.5 fast path: seq_index with a fixed (broadcast) source is a
  // gather from the shared sequence, with no replication.
  if (op == Prim::kSeqIndex && options.shared_source_gather &&
      !is_lifted(0) && is_lifted(1)) {
    return VValue::seq(
        seq_index_1_shared(args[0].as_seq(), args[1].as_seq()));
  }

  // Frame length from the first lifted argument.
  Size n = -1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (is_lifted(i)) {
      n = args[i].as_seq().length();
      break;
    }
  }
  PROTEUS_REQUIRE(EvalError, n >= 0,
                  "depth-1 extension applied with no frame argument");

  // Normalize: replicate broadcast arguments across the frame.
  std::vector<Array> frames;
  frames.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    frames.push_back(is_lifted(i) ? args[i].as_seq()
                                  : materialize(args[i], n));
  }

  switch (op) {
    case Prim::kAdd:
    case Prim::kSub:
    case Prim::kMul:
    case Prim::kDiv:
    case Prim::kMod:
    case Prim::kMin:
    case Prim::kMax:
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
      return VValue::seq(ew_binary(op, frames[0], frames[1]));
    case Prim::kNeg:
    case Prim::kNot:
    case Prim::kToReal:
    case Prim::kToInt:
    case Prim::kSqrt:
      return VValue::seq(ew_unary(op, frames[0]));
    case Prim::kLength:
      return VValue::seq(Array::ints(frames[0].lengths()));
    case Prim::kRange:
      return VValue::seq(range_1(frames[0], frames[1]));
    case Prim::kRange1:
      return VValue::seq(range1_1(frames[0]));
    case Prim::kRestrict:
      return VValue::seq(restrict_1(frames[0], frames[1]));
    case Prim::kCombine:
      return VValue::seq(combine_1(frames[0], frames[1], frames[2]));
    case Prim::kDist:
      return VValue::seq(dist_1(frames[0], frames[1]));
    case Prim::kSeqIndex:
      return VValue::seq(seq_index_1_frame(frames[0], frames[1]));
    case Prim::kSeqIndexInner:
      return VValue::seq(seq_index_inner_1(frames[0], frames[1]));
    case Prim::kSeqUpdate:
      return VValue::seq(update_1(frames[0], frames[1], frames[2]));
    case Prim::kFlatten:
      return VValue::seq(flatten_1(frames[0]));
    case Prim::kConcat:
      return VValue::seq(concat_1(frames[0], frames[1]));
    case Prim::kReverse:
      return VValue::seq(reverse_1(frames[0]));
    case Prim::kZip:
      return VValue::seq(zip_1(frames[0], frames[1]));
    case Prim::kSum:
    case Prim::kMaxVal:
    case Prim::kMinVal:
    case Prim::kAnyV:
    case Prim::kAllV:
      return VValue::seq(reduce_1(op, frames[0]));
    case Prim::kExtract:
    case Prim::kInsert:
    case Prim::kEmptyFrame:
    case Prim::kAnyTrue:
      eval_fail(std::string("'") + prim_name(op) +
                "' has no depth-1 extension (it is a depth-0 representation "
                "primitive)");
  }
  eval_fail("corrupt primitive opcode");
}

VValue empty_frame_value(const VValue& mask, int depth,
                         const lang::TypePtr& type) {
  PROTEUS_REQUIRE(EvalError, depth >= 1 && type != nullptr && type->is_seq(),
                  "empty_frame: bad depth or type annotation");
  // Element type beta of Seq^depth(beta):
  lang::TypePtr beta = type;
  for (int k = 0; k < depth; ++k) beta = beta->elem();

  // Recursive structure copy of the mask's array above the deepest level.
  std::function<Array(const Array&, int)> build = [&](const Array& m,
                                                      int d) -> Array {
    if (d == 1) return empty_array_of(beta);
    if (d == 2) {
      return Array::nested(IntVec(m.length(), Int{0}), empty_array_of(beta));
    }
    return Array::nested(m.lengths(), build(m.inner(), d - 1));
  };
  return VValue::seq(build(mask.as_seq(), depth));
}

VValue seq_cons0(const std::vector<VValue>& elems,
                 const lang::TypePtr& elem_type) {
  if (elems.empty()) {
    PROTEUS_REQUIRE(EvalError, elem_type != nullptr,
                    "seq_cons: empty literal without an element type");
    return VValue::seq(empty_array_of(elem_type));
  }
  Array all = materialize(elems[0], 1);
  for (std::size_t i = 1; i < elems.size(); ++i) {
    all = seq::concat(all, materialize(elems[i], 1));
  }
  return VValue::seq(std::move(all));
}

VValue tuple_cons(std::vector<VValue> elems, int depth) {
  if (depth == 0) return VValue::tuple(std::move(elems));
  std::vector<Array> comps;
  comps.reserve(elems.size());
  for (const VValue& v : elems) comps.push_back(v.as_seq());
  return VValue::seq(Array::tuple(std::move(comps)));
}

VValue tuple_get(const VValue& tuple, int index, int depth) {
  const std::size_t k = static_cast<std::size_t>(index - 1);
  if (depth == 0) {
    const auto& comps = tuple.as_tuple();
    PROTEUS_REQUIRE(EvalError, k < comps.size(),
                    "tuple component index out of range");
    return comps[k];
  }
  const auto& comps = tuple.as_seq().components();
  PROTEUS_REQUIRE(EvalError, k < comps.size(),
                  "tuple component index out of range");
  return VValue::seq(comps[k]);
}

VValue seq_cons1(const std::vector<VValue>& elems) {
  std::vector<Array> frames;
  frames.reserve(elems.size());
  for (const VValue& e : elems) frames.push_back(e.as_seq());
  return VValue::seq(seq_cons_1(frames));
}

bool any_true_frame(const VValue& frame) {
  const Array* cur = &frame.as_seq();
  while (cur->kind() == Array::Kind::kNested) cur = &cur->inner();
  return vl::any(cur->bool_values());
}

}  // namespace proteus::kernels
