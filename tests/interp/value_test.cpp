// Tests for boxed values and boxed <-> flat conversions.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/proteus.hpp"
#include "interp/value.hpp"
#include "lang/parser.hpp"
#include "seq/build.hpp"

namespace proteus::interp {
namespace {

using lang::Type;

TEST(Value, ScalarsAndAccessors) {
  EXPECT_EQ(Value::ints(7).as_int(), 7);
  EXPECT_EQ(Value::reals(1.5).as_real(), 1.5);
  EXPECT_TRUE(Value::bools(true).as_bool());
  EXPECT_EQ(Value::fun("f").fun_name(), "f");
  EXPECT_THROW((void)Value::ints(1).as_bool(), EvalError);
  EXPECT_THROW((void)Value::ints(1).as_seq(), EvalError);
}

TEST(Value, IntExtremesRoundTripThroughText) {
  // A rendered Int result can be sent back as an argument: INT64_MIN's
  // literal is a unary minus applied to 9223372036854775808.
  for (const vl::Int v : {std::numeric_limits<vl::Int>::min(),
                          std::numeric_limits<vl::Int>::max()}) {
    const Value x = Value::ints(v);
    EXPECT_EQ(parse_value(to_text(x)), x) << to_text(x);
    const Value xs = Value::seq({x, Value::ints(-1), x});
    EXPECT_EQ(parse_value(to_text(xs)), xs) << to_text(xs);
  }
  EXPECT_EQ(to_text(parse_value("-9223372036854775808")),
            "-9223372036854775808");
  // 2^63 itself is no int, with or without a binary minus before it.
  EXPECT_THROW((void)parse_value("9223372036854775808"), SyntaxError);
  EXPECT_THROW((void)parse_value("0 - 9223372036854775808"), SyntaxError);
  EXPECT_THROW((void)parse_value("-9223372036854775809"), SyntaxError);
}

TEST(Value, RealsRoundTripThroughText) {
  // A rendered Real reads back as the same double, bit for bit (so also
  // -0.0, which compares equal to 0.0), and always as a Real, never an
  // Int.
  for (const vl::Real r : {0.1, 1.0 / 3.0, 1.0, -0.0, 1e-7, 1e300}) {
    const std::string text = to_text(Value::reals(r));
    const Value back = parse_value(text);
    ASSERT_TRUE(back.is_real()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_real()),
              std::bit_cast<std::uint64_t>(r))
        << text;
    const Value xs = Value::seq({Value::reals(r), Value::reals(-r)});
    EXPECT_EQ(parse_value(to_text(xs)), xs) << to_text(xs);
  }
  EXPECT_EQ(to_text(Value::reals(1.0)), "1.0");
  EXPECT_EQ(to_text(Value::reals(-0.0)), "-0.0");
  EXPECT_EQ(to_text(Value::reals(0.1)), "0.1");
  EXPECT_EQ(to_text(Value::reals(1.0 / 3.0)), "0.3333333333333333");
  EXPECT_EQ(to_text(Value::reals(1e-7)), "1e-07");
  EXPECT_EQ(to_text(Value::reals(1e300)), "1e+300");
}

TEST(Value, Equality) {
  EXPECT_EQ(parse_value("[[1,2],[3]]"), parse_value("[[1,2],[3]]"));
  EXPECT_FALSE(parse_value("[1]") == parse_value("[2]"));
  EXPECT_FALSE(parse_value("[1]") == parse_value("1"));
  EXPECT_FALSE(parse_value("(1,2)") == parse_value("[1,2]"));
  EXPECT_EQ(Value::fun("f"), Value::fun("f"));
  EXPECT_FALSE(Value::fun("f") == Value::fun("g"));
}

TEST(Value, Rendering) {
  EXPECT_EQ(to_text(parse_value("[[1],[],[2,3]]")), "[[1],[],[2,3]]");
  EXPECT_EQ(to_text(parse_value("(1,(true,2))")), "(1,(true,2))");
  EXPECT_EQ(to_text(Value::fun("sqs")), "<sqs>");
}

TEST(Conversions, FlatIntSeq) {
  Value v = parse_value("[1,2,3]");
  auto t = Type::seq(Type::int_());
  seq::Array a = to_array(v, t);
  EXPECT_EQ(a.int_values(), (vl::IntVec{1, 2, 3}));
  EXPECT_EQ(from_array(a, t), v);
}

TEST(Conversions, NestedSeq) {
  Value v = parse_value("[[1,2],[],[3]]");
  auto t = Type::seq(Type::seq(Type::int_()));
  seq::Array a = to_array(v, t);
  EXPECT_EQ(a.lengths(), (vl::IntVec{2, 0, 1}));
  EXPECT_EQ(from_array(a, t), v);
}

TEST(Conversions, EmptySeqUsesTypeStructure) {
  Value v = parse_value("([] : seq(seq(int)))");
  auto t = Type::seq(Type::seq(Type::int_()));
  seq::Array a = to_array(v, t);
  EXPECT_EQ(a.length(), 0);
  EXPECT_EQ(a.kind(), seq::Array::Kind::kNested);
  EXPECT_EQ(from_array(a, t), v);
}

TEST(Conversions, TupleElements) {
  Value v = parse_value("[(1,true),(2,false)]");
  auto t = Type::seq(Type::tuple({Type::int_(), Type::bool_()}));
  seq::Array a = to_array(v, t);
  ASSERT_EQ(a.components().size(), 2u);
  EXPECT_EQ(a.components()[0].int_values(), (vl::IntVec{1, 2}));
  EXPECT_EQ(from_array(a, t), v);
}

TEST(Conversions, RealElements) {
  Value v = parse_value("[1.5, 2.5]");
  auto t = Type::seq(Type::real());
  EXPECT_EQ(from_array(to_array(v, t), t), v);
}

TEST(Conversions, DeepRoundTrip) {
  Value v = parse_value("[[[1],[2,3]],[],[[4,5,6]]]");
  auto t = Type::seq_n(Type::int_(), 3);
  EXPECT_EQ(from_array(to_array(v, t), t), v);
}

TEST(Conversions, TupleOfSeqs) {
  Value v = parse_value("[([1,2], 7), (([] : seq(int)), 8)]");
  auto t = Type::seq(Type::tuple({Type::seq(Type::int_()), Type::int_()}));
  EXPECT_EQ(from_array(to_array(v, t), t), v);
}

TEST(Conversions, ErrorsOnWrongShape) {
  auto t = Type::seq(Type::int_());
  EXPECT_THROW((void)to_array(parse_value("1"), t), EvalError);
  EXPECT_THROW((void)to_array(parse_value("[1]"), Type::int_()), EvalError);
  EXPECT_THROW((void)to_array(parse_value("[true]"), t), EvalError);
}

}  // namespace
}  // namespace proteus::interp
