// The single-pass depth-1 sequence kernels (kernels/prims.cpp) and the
// structural kernels under them (seq::gather/pack/combine/seg_broadcast,
// vl::pack/combine) against their compositional definitions: the
// formulations as chains of flat vl primitives that they replaced, kept
// here only as oracles. Each case runs on the serial and the OpenMP
// backend, with frames large enough for the OpenMP loops to fork, and
// covers empty frames, zero-length segments, every kind of element, and
// the exact message of the first out-of-range index.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "kernels/prims.hpp"
#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels {
namespace {

using lang::Prim;
using seq::Array;
using vl::Bool;
using vl::BoolVec;
using vl::IntVec;
using vl::RealVec;

// --- oracles: the compositional definitions ------------------------------------

namespace oracle {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

template <typename T>
vl::Vec<T> vl_pack(const vl::Vec<T>& values, const BoolVec& mask) {
  vl::require_same_length(values, mask, "restrict");
  IntVec counts = vl::select(mask, IntVec(mask.size(), Int{1}),
                             IntVec(mask.size(), Int{0}));
  Int survivors = 0;
  IntVec offsets = vl::scan_add_total(counts, survivors);
  vl::Vec<T> out(survivors);
  for (Size i = 0; i < values.size(); ++i) {
    if (mask[i]) out[offsets[i]] = values[i];
  }
  return out;
}

template <typename T>
vl::Vec<T> vl_combine(const BoolVec& mask, const vl::Vec<T>& t,
                      const vl::Vec<T>& f) {
  IntVec counts = vl::select(mask, IntVec(mask.size(), Int{1}),
                             IntVec(mask.size(), Int{0}));
  IntVec true_rank = vl::scan_add(counts);
  vl::Vec<T> out(mask.size());
  for (Size i = 0; i < mask.size(); ++i) {
    out[i] = mask[i] ? t[true_rank[i]] : f[i - true_rank[i]];
  }
  return out;
}

Array gather(const Array& a, const IntVec& idx) {
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(vl::gather(a.int_values(), idx));
    case Array::Kind::kReal:
      return Array::reals(vl::gather(a.real_values(), idx));
    case Array::Kind::kBool:
      return Array::bools(vl::gather(a.bool_values(), idx));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      for (const Array& c : a.components()) comps.push_back(oracle::gather(c, idx));
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      IntVec out_lens = vl::gather(a.lengths(), idx);
      IntVec starts = vl::gather(vl::lengths_to_offsets(a.lengths()), idx);
      IntVec base = vl::seg_dist(starts, out_lens);
      IntVec ranks = vl::segment_ranks(out_lens);
      IntVec positions = vl::add(base, vl::sub(ranks, Int{1}));
      return Array::nested(std::move(out_lens), oracle::gather(a.inner(), positions));
    }
  }
  throw RepresentationError("corrupt array kind");
}

IntVec pack_indices(const BoolVec& mask) {
  return vl_pack(vl::iota(mask.size(), 0), mask);
}

Array pack(const Array& a, const BoolVec& mask) {
  return oracle::gather(a, oracle::pack_indices(mask));
}

Array combine(const BoolVec& mask, const Array& t, const Array& f) {
  IntVec ones = vl::select(mask, IntVec(mask.size(), Int{1}),
                           IntVec(mask.size(), Int{0}));
  IntVec true_rank = vl::scan_add(ones);
  IntVec pos(mask.size());
  for (Size i = 0; i < mask.size(); ++i) {
    pos[i] = mask[i] ? true_rank[i] : t.length() + (i - true_rank[i]);
  }
  return oracle::gather(seq::concat(t, f), pos);
}

Array seg_broadcast(const Array& a, const IntVec& counts) {
  return oracle::gather(a, vl::seg_dist(vl::iota(a.length(), 0), counts));
}

IntVec clamp_counts(const IntVec& counts) {
  BoolVec negative = vl::lt(counts, Int{0});
  return vl::select(negative, IntVec(counts.size(), Int{0}), counts);
}

void check_index_frame(const IntVec& idx, const IntVec& limits) {
  for (Size k = 0; k < idx.size(); ++k) {
    if (idx[k] < 1 || idx[k] > limits[k]) {
      eval_fail("seq_index: index " + std::to_string(idx[k]) +
                " out of range for sequence of length " +
                std::to_string(limits[k]));
    }
  }
}

Array range1_1(const Array& ns) {
  IntVec lens = clamp_counts(ns.int_values());
  return Array::nested(lens, Array::ints(vl::seg_iota1(ns.int_values())));
}

Array range_1(const Array& lo, const Array& hi) {
  const IntVec& l = lo.int_values();
  IntVec lens = clamp_counts(vl::add(vl::sub(hi.int_values(), l), Int{1}));
  IntVec ranks = vl::segment_ranks(lens);
  IntVec base = vl::seg_dist(l, lens);
  IntVec values = vl::sub(vl::add(base, ranks), Int{1});
  return Array::nested(std::move(lens), Array::ints(std::move(values)));
}

Array dist_1(const Array& values, const Array& counts) {
  IntVec lens = clamp_counts(counts.int_values());
  return Array::nested(lens, oracle::seg_broadcast(values, lens));
}

Array seq_index_1_frame(const Array& s, const Array& idx) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  check_index_frame(i, lens);
  IntVec positions =
      vl::add(vl::lengths_to_offsets(lens), vl::sub(i, Int{1}));
  return oracle::gather(s.inner(), positions);
}

Array seq_index_1_shared(const Array& source, const Array& idx) {
  const IntVec& i = idx.int_values();
  check_index_frame(i, IntVec(i.size(), source.length()));
  return oracle::gather(source, vl::sub(i, Int{1}));
}

Array seq_index_inner_1(const Array& v, const Array& idx) {
  const IntVec& rows = v.lengths();
  const IntVec& per_slot = idx.lengths();
  const IntVec& i = idx.inner().int_values();
  IntVec ids = vl::segment_ids(per_slot);
  check_index_frame(i, vl::gather(rows, ids));
  IntVec base = vl::gather(vl::lengths_to_offsets(rows), ids);
  IntVec positions = vl::add(base, vl::sub(i, Int{1}));
  return Array::nested(per_slot, oracle::gather(v.inner(), positions));
}

Array restrict_1(const Array& v, const Array& m) {
  const BoolVec& mask = m.inner().bool_values();
  IntVec counts = vl::select(mask, IntVec(mask.size(), Int{1}),
                             IntVec(mask.size(), Int{0}));
  IntVec new_lens = vl::seg_reduce_add(counts, v.lengths());
  return Array::nested(std::move(new_lens), oracle::pack(v.inner(), mask));
}

Array combine_1(const Array& m, const Array& t, const Array& f) {
  return Array::nested(m.lengths(), oracle::combine(m.inner().bool_values(),
                                            t.inner(), f.inner()));
}

Array concat_1(const Array& a, const Array& b) {
  const IntVec& la = a.lengths();
  const IntVec& lb = b.lengths();
  IntVec out_lens = vl::add(la, lb);
  IntVec ids = vl::segment_ids(out_lens);
  IntVec ranks0 = vl::sub(vl::segment_ranks(out_lens), Int{1});
  IntVec la_of = vl::gather(la, ids);
  IntVec aoff = vl::gather(vl::lengths_to_offsets(la), ids);
  IntVec boff = vl::gather(vl::lengths_to_offsets(lb), ids);
  BoolVec in_a = vl::lt(ranks0, la_of);
  IntVec pos_a = vl::add(aoff, ranks0);
  IntVec pos_b = vl::add(vl::add(boff, vl::sub(ranks0, la_of)),
                         IntVec(ranks0.size(), a.inner().length()));
  IntVec pos = vl::select(in_a, pos_a, pos_b);
  return Array::nested(std::move(out_lens),
                       oracle::gather(seq::concat(a.inner(), b.inner()), pos));
}

Array update_1(const Array& s, const Array& idx, const Array& x) {
  const IntVec& lens = s.lengths();
  const IntVec& i = idx.int_values();
  check_index_frame(i, lens);
  IntVec targets = vl::add(vl::lengths_to_offsets(lens), vl::sub(i, Int{1}));
  const Size n_inner = s.inner().length();
  IntVec map = vl::scatter(vl::iota(n_inner, 0), targets,
                           vl::iota(lens.size(), n_inner));
  return Array::nested(lens, oracle::gather(seq::concat(s.inner(), x), map));
}

Array reverse_1(const Array& v) {
  const IntVec& lens = v.lengths();
  IntVec ids = vl::segment_ids(lens);
  IntVec pos = vl::sub(vl::add(vl::gather(vl::lengths_to_offsets(lens), ids),
                               vl::gather(lens, ids)),
                       vl::segment_ranks(lens));
  return Array::nested(lens, oracle::gather(v.inner(), pos));
}

Array seq_cons_1(const std::vector<Array>& elems) {
  const Size n = elems[0].length();
  const Size k = static_cast<Size>(elems.size());
  Array all = elems[0];
  for (std::size_t c = 1; c < elems.size(); ++c) {
    all = seq::concat(all, elems[c]);
  }
  IntVec p = vl::iota(n * k, 0);
  IntVec idx = vl::add(vl::mul(vl::mod(p, k), n), vl::div(p, k));
  return Array::nested(IntVec(n, k), oracle::gather(all, idx));
}

}  // namespace oracle

// --- random inputs ---------------------------------------------------------------

enum class Elem { kInt, kReal, kBool, kTuple, kNested };

const char* elem_name(Elem e) {
  switch (e) {
    case Elem::kInt: return "Int";
    case Elem::kReal: return "Real";
    case Elem::kBool: return "Bool";
    case Elem::kTuple: return "Tuple";
    case Elem::kNested: return "Nested";
  }
  return "?";
}

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  Int uniform(Int lo, Int hi) {
    return std::uniform_int_distribution<Int>(lo, hi)(rng_);
  }

  /// Lengths in [lo, hi]; roughly a third are zero when lo is 0.
  IntVec lengths(Size n, Int lo, Int hi) {
    IntVec out(n);
    for (Size i = 0; i < n; ++i) {
      out[i] = lo == 0 && uniform(0, 2) == 0 ? 0 : uniform(lo, hi);
    }
    return out;
  }

  BoolVec mask(Size n) {
    BoolVec out(n);
    for (Size i = 0; i < n; ++i) out[i] = static_cast<Bool>(uniform(0, 1));
    return out;
  }

  /// n elements of kind `e`.
  Array elems(Elem e, Size n) {
    switch (e) {
      case Elem::kInt: {
        IntVec v(n);
        for (Size i = 0; i < n; ++i) v[i] = uniform(-50, 50);
        return Array::ints(std::move(v));
      }
      case Elem::kReal: {
        RealVec v(n);
        for (Size i = 0; i < n; ++i) v[i] = static_cast<Real>(uniform(-8, 8)) / 4;
        return Array::reals(std::move(v));
      }
      case Elem::kBool:
        return Array::bools(mask(n));
      case Elem::kTuple:
        return Array::tuple({elems(Elem::kInt, n), elems(Elem::kBool, n)});
      case Elem::kNested: {
        IntVec lens = lengths(n, 0, 3);
        const Size total = vl::lengths_total(lens);
        return Array::nested(std::move(lens), elems(Elem::kReal, total));
      }
    }
    throw RepresentationError("corrupt element kind");
  }

  /// A frame of `lens.size()` slots whose slot s holds lens[s] elements.
  Array frame(Elem e, IntVec lens) {
    const Size total = vl::lengths_total(lens);
    return Array::nested(std::move(lens), elems(e, total));
  }

  /// One valid 1-origin index per slot into rows of the given lengths
  /// (every length must be positive).
  IntVec indices_into(const IntVec& limits) {
    IntVec out(limits.size());
    for (Size i = 0; i < limits.size(); ++i) out[i] = uniform(1, limits[i]);
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

// --- harness ---------------------------------------------------------------------

VValue frame_value(Array a) { return VValue::seq(std::move(a)); }

Array lifted(Prim op, std::vector<VValue> args,
             std::vector<std::uint8_t> lifted_args = {}) {
  return apply_prim1(op, args, lifted_args).as_seq();
}

/// The message of the exception `f` throws ("" when it returns).
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

using Param = std::tuple<vl::Backend, Elem, Size>;

/// Parameters: backend x element kind x frame size. 5000 slots is above
/// vl::kParallelGrain, so the OpenMP loops over segments really fork.
class SeqKernels : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    if (backend() == vl::Backend::kOpenMP && !vl::openmp_available()) {
      GTEST_SKIP() << "this build has no OpenMP backend";
    }
    guard_.emplace(backend());
  }

  [[nodiscard]] vl::Backend backend() const { return std::get<0>(GetParam()); }
  [[nodiscard]] Elem elem() const { return std::get<1>(GetParam()); }
  [[nodiscard]] Size slots() const { return std::get<2>(GetParam()); }
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(slots()) * 31 +
           static_cast<std::uint64_t>(elem());
  }

 private:
  std::optional<vl::BackendGuard> guard_;
};

TEST_P(SeqKernels, SeqIndexInner) {
  Gen g(seed());
  Array v = g.frame(elem(), g.lengths(slots(), 1, 4));
  IntVec per_slot = g.lengths(slots(), 0, 3);
  IntVec idx;
  for (Size s = 0; s < slots(); ++s) {
    for (Int k = 0; k < per_slot[s]; ++k) {
      idx.push_back(g.uniform(1, v.lengths()[s]));
    }
  }
  Array index = Array::nested(per_slot, Array::ints(idx));
  EXPECT_EQ(lifted(Prim::kSeqIndexInner, {frame_value(v), frame_value(index)}),
            oracle::seq_index_inner_1(v, index));
}

TEST_P(SeqKernels, SeqIndexFrameAndShared) {
  Gen g(seed());
  Array s = g.frame(elem(), g.lengths(slots(), 1, 4));
  Array idx = Array::ints(g.indices_into(s.lengths()));
  EXPECT_EQ(lifted(Prim::kSeqIndex, {frame_value(s), frame_value(idx)}),
            oracle::seq_index_1_frame(s, idx));

  Array source = g.elems(elem(), 7);
  Array shared_idx = Array::ints(g.indices_into(IntVec(slots(), Int{7})));
  EXPECT_EQ(lifted(Prim::kSeqIndex, {frame_value(source), frame_value(shared_idx)},
                   {0, 1}),
            oracle::seq_index_1_shared(source, shared_idx));
  // The depth-0 seq_index_inner is the same shared-source gather.
  EXPECT_EQ(apply_prim0(Prim::kSeqIndexInner,
                        {frame_value(source), frame_value(shared_idx)})
                .as_seq(),
            oracle::seq_index_1_shared(source, shared_idx));
}

TEST_P(SeqKernels, Ranges) {
  Gen g(seed());
  Array ns = Array::ints(g.lengths(slots(), -2, 4));
  Array lo = Array::ints(g.lengths(slots(), -3, 3));
  EXPECT_EQ(lifted(Prim::kRange1, {frame_value(ns)}), oracle::range1_1(ns));
  EXPECT_EQ(lifted(Prim::kRange, {frame_value(lo), frame_value(ns)}),
            oracle::range_1(lo, ns));
}

TEST_P(SeqKernels, ReverseAndUpdate) {
  Gen g(seed());
  Array v = g.frame(elem(), g.lengths(slots(), 0, 4));
  EXPECT_EQ(lifted(Prim::kReverse, {frame_value(v)}), oracle::reverse_1(v));
  Array s = g.frame(elem(), g.lengths(slots(), 1, 4));
  Array idx = Array::ints(g.indices_into(s.lengths()));
  Array x = g.elems(elem(), slots());
  EXPECT_EQ(lifted(Prim::kSeqUpdate,
                   {frame_value(s), frame_value(idx), frame_value(x)}),
            oracle::update_1(s, idx, x));
}

TEST_P(SeqKernels, Concat) {
  Gen g(seed());
  Array a = g.frame(elem(), g.lengths(slots(), 0, 3));
  Array b = g.frame(elem(), g.lengths(slots(), 0, 3));
  EXPECT_EQ(lifted(Prim::kConcat, {frame_value(a), frame_value(b)}),
            oracle::concat_1(a, b));
}

TEST_P(SeqKernels, DistAndSegBroadcast) {
  Gen g(seed());
  Array values = g.elems(elem(), slots());
  IntVec counts = g.lengths(slots(), -2, 3);  // negatives are empty slots
  Array c = Array::ints(counts);
  EXPECT_EQ(lifted(Prim::kDist, {frame_value(values), frame_value(c)}),
            oracle::dist_1(values, c));
  IntVec clamped = oracle::clamp_counts(counts);
  EXPECT_EQ(seq::seg_broadcast(values, clamped),
            oracle::seg_broadcast(values, clamped));
}

TEST_P(SeqKernels, SeqCons) {
  Gen g(seed());
  std::vector<Array> elems = {g.elems(elem(), slots()),
                              g.elems(elem(), slots()),
                              g.elems(elem(), slots())};
  std::vector<VValue> frames;
  for (const Array& e : elems) frames.push_back(frame_value(e));
  EXPECT_EQ(seq_cons1(frames).as_seq(), oracle::seq_cons_1(elems));
}

TEST_P(SeqKernels, RestrictAndCombine) {
  Gen g(seed());
  Array v = g.frame(elem(), g.lengths(slots(), 0, 4));
  const BoolVec mask = g.mask(v.inner().length());
  Array m = Array::nested(v.lengths(), Array::bools(mask));
  EXPECT_EQ(lifted(Prim::kRestrict, {frame_value(v), frame_value(m)}),
            oracle::restrict_1(v, m));

  // combine^1: each slot takes its true positions from t, the rest from f.
  IntVec t_lens(slots(), Int{0});
  IntVec f_lens(slots(), Int{0});
  Size pos = 0;
  for (Size s = 0; s < slots(); ++s) {
    for (Int k = 0; k < v.lengths()[s]; ++k) t_lens[s] += mask[pos++];
    f_lens[s] = v.lengths()[s] - t_lens[s];
  }
  Array t = g.frame(elem(), t_lens);
  Array f = g.frame(elem(), f_lens);
  EXPECT_EQ(
      lifted(Prim::kCombine, {frame_value(m), frame_value(t), frame_value(f)}),
      oracle::combine_1(m, t, f));
}

TEST_P(SeqKernels, StructuralGatherPackCombine) {
  Gen g(seed());
  Array a = g.elems(elem(), slots());
  IntVec idx(slots());
  for (Size i = 0; i < slots(); ++i) idx[i] = g.uniform(0, slots() - 1);
  if (slots() == 0) idx = IntVec{};
  EXPECT_EQ(seq::gather(a, idx), oracle::gather(a, idx));

  const BoolVec mask = g.mask(slots());
  EXPECT_EQ(seq::pack(a, mask), oracle::pack(a, mask));
  EXPECT_EQ(vl::pack_indices(mask), oracle::pack_indices(mask));

  const Size trues = vl::count(mask);
  Array t = g.elems(elem(), trues);
  Array f = g.elems(elem(), slots() - trues);
  EXPECT_EQ(seq::combine(mask, t, f), oracle::combine(mask, t, f));
}

TEST_P(SeqKernels, FlatPackCombine) {
  Gen g(seed());
  IntVec ints = g.elems(Elem::kInt, slots()).int_values();
  RealVec reals = g.elems(Elem::kReal, slots()).real_values();
  const BoolVec mask = g.mask(slots());
  EXPECT_EQ(vl::pack(ints, mask), oracle::vl_pack(ints, mask));
  EXPECT_EQ(vl::pack(reals, mask), oracle::vl_pack(reals, mask));
  EXPECT_EQ(vl::pack(mask, mask), oracle::vl_pack(mask, mask));
  const Size trues = vl::count(mask);
  IntVec t = g.elems(Elem::kInt, trues).int_values();
  IntVec f = g.elems(Elem::kInt, slots() - trues).int_values();
  EXPECT_EQ(vl::combine(mask, t, f), oracle::vl_combine(mask, t, f));
}

TEST_P(SeqKernels, OutOfRangeReportsTheFirstBadIndex) {
  const Size n = std::max(slots(), Size{37});
  Gen g(seed());
  Array s = g.frame(elem(), g.lengths(n, 1, 4));
  IntVec idx = g.indices_into(s.lengths());
  // Two bad indices; the earlier one (by position) must be reported, on
  // every backend, even though a later slot fails too.
  const Size first = n / 3;
  const Size later = n - 1;
  idx[later] = 0;
  idx[first] = s.lengths()[first] + 5;
  const std::string expected =
      "seq_index: index " + std::to_string(idx[first]) +
      " out of range for sequence of length " +
      std::to_string(s.lengths()[first]);
  Array index = Array::ints(idx);
  EXPECT_EQ(error_of([&] {
              (void)lifted(Prim::kSeqIndex, {frame_value(s), frame_value(index)});
            }),
            expected);
  EXPECT_EQ(error_of([&] { (void)oracle::seq_index_1_frame(s, index); }),
            expected);

  // seq_index_inner^1: one index per slot, the same two bad ones.
  Array inner = Array::nested(IntVec(n, Int{1}), Array::ints(idx));
  EXPECT_EQ(error_of([&] {
              (void)lifted(Prim::kSeqIndexInner,
                           {frame_value(s), frame_value(inner)});
            }),
            expected);
  EXPECT_EQ(error_of([&] { (void)oracle::seq_index_inner_1(s, inner); }),
            expected);

  // update^1 checks its frame the same way.
  Array x = g.elems(elem(), n);
  EXPECT_EQ(error_of([&] {
              (void)lifted(Prim::kSeqUpdate,
                           {frame_value(s), frame_value(index), frame_value(x)});
            }),
            expected);

  // The shared source: indices 0 and length+1 are both out of range.
  Array source = g.elems(elem(), 4);
  IntVec shared = g.indices_into(IntVec(n, Int{4}));
  shared[later] = 0;
  shared[first] = 5;
  Array shared_idx = Array::ints(shared);
  const std::string shared_expected =
      "seq_index: index 5 out of range for sequence of length 4";
  EXPECT_EQ(error_of([&] {
              (void)lifted(Prim::kSeqIndex,
                           {frame_value(source), frame_value(shared_idx)},
                           {0, 1});
            }),
            shared_expected);
  EXPECT_EQ(error_of([&] { (void)oracle::seq_index_1_shared(source, shared_idx); }),
            shared_expected);

  // The structural gather: 0-origin, checked against the source length.
  IntVec flat = IntVec(n, Int{0});
  flat[later] = -1;
  flat[first] = n + 2;
  EXPECT_EQ(error_of([&] { (void)seq::gather(s, flat); }),
            error_of([&] { (void)oracle::gather(s, flat); }));
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [backend, elem, slots] = info.param;
  return std::string(backend == vl::Backend::kSerial ? "Serial" : "OpenMP") +
         elem_name(elem) + std::to_string(slots);
}

INSTANTIATE_TEST_SUITE_P(
    Frames, SeqKernels,
    ::testing::Combine(::testing::Values(vl::Backend::kSerial,
                                         vl::Backend::kOpenMP),
                       ::testing::Values(Elem::kInt, Elem::kReal, Elem::kBool,
                                         Elem::kTuple, Elem::kNested),
                       ::testing::Values(Size{0}, Size{1}, Size{37},
                                         Size{5000})),
    param_name);

// --- fixed cases -------------------------------------------------------------------

TEST(SeqKernelsFixed, EmptyFramesAndZeroLengthSegments) {
  Array empty = Array::nested(IntVec{}, Array::ints(IntVec{}));
  EXPECT_EQ(seq::to_text(lifted(Prim::kConcat,
                                {frame_value(empty), frame_value(empty)})),
            "[]");
  Array zeros = Array::nested(IntVec{0, 0}, Array::ints(IntVec{}));
  EXPECT_EQ(seq::to_text(lifted(Prim::kConcat,
                                {frame_value(zeros), frame_value(zeros)})),
            "[[],[]]");
  EXPECT_EQ(seq::to_text(lifted(Prim::kRange1,
                                {frame_value(Array::ints(IntVec{3, 0, -2, 1}))})),
            "[[1,2,3],[],[],[1]]");
  EXPECT_EQ(seq::to_text(lifted(Prim::kRange,
                                {frame_value(Array::ints(IntVec{4, 2, 7})),
                                 frame_value(Array::ints(IntVec{6, 1, 7}))})),
            "[[4,5,6],[],[7]]");
  Array ns = Array::ints(IntVec{3, 0, -1, 5});
  Array los = Array::ints(IntVec{-2, 0, 9, 3});
  EXPECT_EQ(lifted(Prim::kRange1, {frame_value(ns)}), oracle::range1_1(ns));
  EXPECT_EQ(lifted(Prim::kRange, {frame_value(los), frame_value(ns)}),
            oracle::range_1(los, ns));
}

}  // namespace
}  // namespace proteus::kernels
