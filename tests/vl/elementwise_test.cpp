// Unit tests for the elementwise vector primitives (depth-1 extensions of
// the scalar functions of Table 2).
#include <gtest/gtest.h>

#include <limits>

#include "seq/build.hpp"
#include "vl/vl.hpp"

namespace proteus::vl {
namespace {

TEST(Elementwise, AddVectors) {
  EXPECT_EQ(add(IntVec{1, 2, 3}, IntVec{10, 20, 30}), (IntVec{11, 22, 33}));
}

TEST(Elementwise, AddScalarBroadcast) {
  EXPECT_EQ(add(IntVec{1, 2, 3}, Int{5}), (IntVec{6, 7, 8}));
}

TEST(Elementwise, AddReal) {
  EXPECT_EQ(add(RealVec{1.5, 2.5}, RealVec{1.0, 1.0}), (RealVec{2.5, 3.5}));
}

TEST(Elementwise, SubBothDirections) {
  EXPECT_EQ(sub(IntVec{5, 7}, IntVec{1, 2}), (IntVec{4, 5}));
  EXPECT_EQ(sub(Int{10}, IntVec{1, 2}), (IntVec{9, 8}));
  EXPECT_EQ(sub(IntVec{5, 7}, Int{5}), (IntVec{0, 2}));
}

TEST(Elementwise, MulDivMod) {
  EXPECT_EQ(mul(IntVec{2, 3}, IntVec{4, 5}), (IntVec{8, 15}));
  EXPECT_EQ(div(IntVec{9, 7}, IntVec{2, 7}), (IntVec{4, 1}));
  EXPECT_EQ(mod(IntVec{9, 7}, IntVec{2, 7}), (IntVec{1, 0}));
}

TEST(Elementwise, DivByZeroThrows) {
  EXPECT_THROW((void)div(IntVec{1}, IntVec{0}), EvalError);
  EXPECT_THROW((void)mod(IntVec{1}, Int{0}), EvalError);
}

TEST(Elementwise, ZeroDivisorRaisesTheSerialErrorUnderOpenMP) {
  // Frames long enough to thread: a zero divisor must be reported after
  // the parallel loop, with the serial backend's message.
  const Size n = 3 * kParallelGrain;
  const IntVec a = seq::random_ints(5, n, -100, 100);
  IntVec b(n, Int{3});
  b[n - 11] = 0;
  const auto message = [&](Backend backend, bool is_mod) -> std::string {
    BackendGuard guard(backend);
    try {
      (void)(is_mod ? mod(a, b) : div(a, b));
    } catch (const EvalError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(message(Backend::kSerial, false), "division by zero");
  EXPECT_EQ(message(Backend::kOpenMP, false), "division by zero");
  EXPECT_EQ(message(Backend::kSerial, true), "mod by zero");
  EXPECT_EQ(message(Backend::kOpenMP, true), "mod by zero");
}

TEST(Elementwise, DivModByMinusOneNeverTraps) {
  constexpr Int kMin = std::numeric_limits<Int>::min();
  constexpr Int kMax = std::numeric_limits<Int>::max();
  EXPECT_EQ(div(IntVec{kMin, kMax, 5}, Int{-1}), (IntVec{kMin, -kMax, -5}));
  EXPECT_EQ(div(IntVec{kMin}, IntVec{-1}), (IntVec{kMin}));
  EXPECT_EQ(mod(IntVec{kMin, kMax, 5}, Int{-1}), (IntVec{0, 0, 0}));
  EXPECT_EQ(mod(IntVec{kMin}, IntVec{-1}), (IntVec{0}));
}

TEST(Elementwise, LengthMismatchThrows) {
  EXPECT_THROW((void)add(IntVec{1}, IntVec{1, 2}), VectorError);
}

TEST(Elementwise, NegAbsMinMax) {
  EXPECT_EQ(neg(IntVec{1, -2}), (IntVec{-1, 2}));
  EXPECT_EQ(abs(IntVec{-3, 4}), (IntVec{3, 4}));
  EXPECT_EQ(min(IntVec{1, 9}, IntVec{5, 2}), (IntVec{1, 2}));
  EXPECT_EQ(max(IntVec{1, 9}, IntVec{5, 2}), (IntVec{5, 9}));
}

TEST(Elementwise, Comparisons) {
  IntVec a{1, 2, 3};
  IntVec b{2, 2, 2};
  EXPECT_EQ(lt(a, b), (BoolVec{1, 0, 0}));
  EXPECT_EQ(le(a, b), (BoolVec{1, 1, 0}));
  EXPECT_EQ(gt(a, b), (BoolVec{0, 0, 1}));
  EXPECT_EQ(ge(a, b), (BoolVec{0, 1, 1}));
  EXPECT_EQ(eq(a, b), (BoolVec{0, 1, 0}));
  EXPECT_EQ(ne(a, b), (BoolVec{1, 0, 1}));
}

TEST(Elementwise, ComparisonScalarForms) {
  IntVec a{1, 2, 3};
  EXPECT_EQ(lt(a, Int{2}), (BoolVec{1, 0, 0}));
  EXPECT_EQ(ge(a, Int{2}), (BoolVec{0, 1, 1}));
  EXPECT_EQ(eq(a, Int{3}), (BoolVec{0, 0, 1}));
}

TEST(Elementwise, BooleanConnectives) {
  BoolVec a{1, 1, 0, 0};
  BoolVec b{1, 0, 1, 0};
  EXPECT_EQ(logical_and(a, b), (BoolVec{1, 0, 0, 0}));
  EXPECT_EQ(logical_or(a, b), (BoolVec{1, 1, 1, 0}));
  EXPECT_EQ(logical_xor(a, b), (BoolVec{0, 1, 1, 0}));
  EXPECT_EQ(logical_not(a), (BoolVec{0, 0, 1, 1}));
}

TEST(Elementwise, Select) {
  EXPECT_EQ(select(BoolVec{1, 0, 1}, IntVec{1, 2, 3}, IntVec{9, 8, 7}),
            (IntVec{1, 8, 3}));
}

TEST(Elementwise, SelectLengthMismatchThrows) {
  EXPECT_THROW((void)select(BoolVec{1}, IntVec{1, 2}, IntVec{3, 4}), VectorError);
}

TEST(Elementwise, Conversions) {
  EXPECT_EQ(to_real(IntVec{1, 2}), (RealVec{1.0, 2.0}));
  EXPECT_EQ(to_int(RealVec{1.9, -1.9}), (IntVec{1, -1}));
}

TEST(Elementwise, EmptyVectorsWork) {
  EXPECT_EQ(add(IntVec{}, IntVec{}), IntVec{});
  EXPECT_EQ(logical_not(BoolVec{}), BoolVec{});
}

TEST(Elementwise, RecordsWorkStats) {
  reset_stats();
  (void)add(IntVec{1, 2, 3}, IntVec{1, 2, 3});
  EXPECT_EQ(stats().primitive_calls, 1u);
  EXPECT_EQ(stats().element_work, 3u);
}

/// Property sweep: scalar broadcast form == explicit dist form.
class BroadcastEquivalence : public ::testing::TestWithParam<Size> {};

TEST_P(BroadcastEquivalence, AddMatchesDist) {
  const Size n = GetParam();
  IntVec v = seq::random_ints(1234 + static_cast<std::uint64_t>(n), n, -50, 50);
  EXPECT_EQ(add(v, Int{7}), add(v, dist(Int{7}, n)));
  EXPECT_EQ(lt(v, Int{3}), lt(v, dist(Int{3}, n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BroadcastEquivalence,
                         ::testing::Values<Size>(0, 1, 2, 17, 256, 5000));

}  // namespace
}  // namespace proteus::vl
