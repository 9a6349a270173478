// Semantics tests for the reference interpreter, construct by construct.
#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "core/proteus.hpp"

namespace proteus::interp {
namespace {

Value eval(std::string_view program, std::string_view expr) {
  lang::Program checked = lang::typecheck(lang::parse_program(program));
  lang::Program lifted;
  lang::ExprPtr typed = lang::typecheck_expression(
      checked, lang::parse_expression(expr), &lifted);
  for (auto& f : lifted.functions) checked.functions.push_back(std::move(f));
  Interpreter in(checked);
  return in.eval(typed);
}

Value ev(std::string_view expr) { return eval("", expr); }

TEST(Interp, Scalars) {
  EXPECT_EQ(ev("1 + 2 * 3"), parse_value("7"));
  EXPECT_EQ(ev("7 mod 3"), parse_value("1"));
  EXPECT_EQ(ev("-(4 - 9)"), parse_value("5"));
  EXPECT_EQ(ev("min(3, 8) + max(3, 8)"), parse_value("11"));
  EXPECT_EQ(ev("1.5 * 2.0"), parse_value("3.0"));
  EXPECT_EQ(ev("real(3) / 2.0"), parse_value("1.5"));
  EXPECT_EQ(ev("int(3.9)"), parse_value("3"));
}

TEST(Interp, Booleans) {
  EXPECT_EQ(ev("true and not false"), parse_value("true"));
  EXPECT_EQ(ev("1 < 2 or 2 < 1"), parse_value("true"));
  EXPECT_EQ(ev("3 == 3 and 3 != 4"), parse_value("true"));
}

TEST(Interp, SequencePrimitives) {
  EXPECT_EQ(ev("#[4,5,6]"), parse_value("3"));
  EXPECT_EQ(ev("[2 .. 5]"), parse_value("[2,3,4,5]"));
  EXPECT_EQ(ev("[5 .. 2]"), parse_value("([] : seq(int))"));
  EXPECT_EQ(ev("range1(4)"), parse_value("[1,2,3,4]"));
  EXPECT_EQ(ev("[9,8,7][2]"), parse_value("8"));
  EXPECT_EQ(ev("restrict([1,2,3,4],[true,false,true,false])"),
            parse_value("[1,3]"));
  EXPECT_EQ(ev("combine([false,true,false],[5],[1,2])"),
            parse_value("[1,5,2]"));
  EXPECT_EQ(ev("dist(7, 3)"), parse_value("[7,7,7]"));
  EXPECT_EQ(ev("dist([1,2], 2)"), parse_value("[[1,2],[1,2]]"));
  EXPECT_EQ(ev("update([1,2,3], 2, 9)"), parse_value("[1,9,3]"));
  EXPECT_EQ(ev("flatten([[1],[],[2,3]])"), parse_value("[1,2,3]"));
  EXPECT_EQ(ev("[1,2] ++ [3]"), parse_value("[1,2,3]"));
  EXPECT_EQ(ev("sum([1,2,3])"), parse_value("6"));
  EXPECT_EQ(ev("maxval([3,9,1])"), parse_value("9"));
  EXPECT_EQ(ev("minval([3,9,1])"), parse_value("1"));
  EXPECT_EQ(ev("any([false,true])"), parse_value("true"));
  EXPECT_EQ(ev("all([true,false])"), parse_value("false"));
}

TEST(Interp, SumOfAnEmptySequenceTakesItsCheckedType) {
  EXPECT_EQ(ev("sum(([] : seq(real)))"), parse_value("0.0"));
  EXPECT_NE(ev("sum(([] : seq(real)))"), parse_value("0"));
  EXPECT_EQ(ev("sum(([] : seq(int)))"), parse_value("0"));
  EXPECT_EQ(ev("[r <- [([] : seq(real)), [1.5]] : sum(r)]"),
            parse_value("[0.0, 1.5]"));
}

TEST(Interp, ExtendedPrimitives) {
  EXPECT_EQ(ev("reverse([1,2,3])"), parse_value("[3,2,1]"));
  EXPECT_EQ(ev("reverse(([] : seq(int)))"), parse_value("([] : seq(int))"));
  EXPECT_EQ(ev("zip([1,2],[true,false])"),
            parse_value("[(1,true),(2,false)]"));
  EXPECT_THROW((void)ev("zip([1],[1,2])"), EvalError);
  EXPECT_EQ(ev("sqrt(6.25)"), parse_value("2.5"));
}

TEST(Interp, PaperDistExample) {
  // dist([3,4,5],[3,2,1]) via the depth-1 extension... expressed with an
  // iterator here: the Section 2 example.
  EXPECT_EQ(ev("[p <- [(3,3),(4,2),(5,1)] : dist(p.1, p.2)]"),
            parse_value("[[3,3,3],[4,4],[5]]"));
}

TEST(Interp, IndexOriginIsOne) {
  EXPECT_EQ(ev("[[2,7],[3,9,8]][1][2]"), parse_value("7"));
  EXPECT_THROW((void)ev("[1,2][0]"), EvalError);
  EXPECT_THROW((void)ev("[1,2][3]"), EvalError);
}

TEST(Interp, ErrorsThrow) {
  EXPECT_THROW((void)ev("1 / 0"), EvalError);
  EXPECT_THROW((void)ev("1 mod 0"), EvalError);
  EXPECT_THROW((void)ev("maxval(([] : seq(int)))"), EvalError);
  EXPECT_THROW((void)ev("update([1], 2, 5)"), EvalError);
}

TEST(Interp, LetAndShadowing) {
  EXPECT_EQ(ev("let x = 2 in let x = x * x in x + 1"), parse_value("5"));
}

TEST(Interp, Conditional) {
  EXPECT_EQ(ev("if 1 < 2 then 10 else 20"), parse_value("10"));
  // branches are lazy: the untaken division by zero must not run
  EXPECT_EQ(ev("if true then 1 else 1 / 0"), parse_value("1"));
}

TEST(Interp, Iterators) {
  EXPECT_EQ(ev("[i <- [1 .. 4] : i * i]"), parse_value("[1,4,9,16]"));
  EXPECT_EQ(ev("[x <- [5,1,4] | x > 2 : x * 10]"), parse_value("[50,40]"));
  EXPECT_EQ(ev("[i <- [1 .. 3] : [j <- [1 .. i] : j]]"),
            parse_value("[[1],[1,2],[1,2,3]]"));
  EXPECT_EQ(ev("[i <- [1 .. 0] : i]"), parse_value("([] : seq(int))"));
}

TEST(Interp, IteratorSemanticsPerElement) {
  // Definition from Section 2: [x <- d : e][k] == e[x := d[k]]
  Value v = ev("[x <- [3,1,2] : x + 100]");
  const ValueList& xs = v.as_seq();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0], parse_value("103"));
  EXPECT_EQ(xs[1], parse_value("101"));
  EXPECT_EQ(xs[2], parse_value("102"));
}

TEST(Interp, FunctionsAndRecursion) {
  const char* prog = R"(
    fun fact(n: int): int = if n <= 1 then 1 else n * fact(n - 1)
    fun fib(n: int): int = if n < 2 then n else fib(n-1) + fib(n-2)
  )";
  EXPECT_EQ(eval(prog, "fact(10)"), parse_value("3628800"));
  EXPECT_EQ(eval(prog, "fib(15)"), parse_value("610"));
}

TEST(Interp, HigherOrderFunctions) {
  const char* prog = R"(
    fun inc(x: int): int = x + 1
    fun twice(f: (int) -> int, x: int): int = f(f(x))
  )";
  EXPECT_EQ(eval(prog, "twice(inc, 5)"), parse_value("7"));
  EXPECT_EQ(eval(prog, "twice(fun(x: int) => x * 3, 2)"), parse_value("18"));
}

TEST(Interp, RunawayRecursionIsReported) {
  const char* prog = "fun loop(n: int): int = loop(n + 1)";
  try {
    (void)eval(prog, "loop(0)");
    FAIL() << "expected a depth trap";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kDepth);
  }
}

TEST(Interp, StepsMeasureAvailableConcurrency) {
  // The paper: Proteus simulation measures "total work and available
  // concurrency". For sqs(n) the per-element bodies run in parallel:
  // work is O(n) but the critical path is O(1).
  lang::Program checked = lang::typecheck(lang::parse_program(
      "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]"));
  Interpreter in(checked);
  (void)in.call_function("sqs", {Value::ints(10)});
  std::uint64_t steps10 = in.stats().steps;
  std::uint64_t work10 = in.stats().scalar_ops;
  in.reset_stats();
  (void)in.call_function("sqs", {Value::ints(1000)});
  std::uint64_t steps1000 = in.stats().steps;
  std::uint64_t work1000 = in.stats().scalar_ops;
  EXPECT_EQ(steps10, steps1000) << "critical path must not grow with n";
  EXPECT_GT(work1000, work10 * 50) << "work must grow with n";
}

TEST(Interp, StepsSumSequentialWork) {
  // Without iterators everything is sequential: steps == scalar ops.
  lang::Program checked = lang::typecheck(lang::parse_program(
      "fun f(x: int): int = (x + 1) * (x - 2)"));
  Interpreter in(checked);
  (void)in.call_function("f", {Value::ints(5)});
  EXPECT_EQ(in.stats().steps, in.stats().scalar_ops);
  EXPECT_EQ(in.stats().steps, 3u);
}

TEST(Interp, StepsNestParallelism) {
  // Nested iterators: depth is the max over all (i, j) bodies plus
  // constant per-level assembly, still O(1) in n.
  lang::Program checked = lang::typecheck(lang::parse_program(
      "fun tri(n: int): seq(seq(int)) = "
      "[i <- [1 .. n] : [j <- [1 .. i] : i * j]]"));
  Interpreter in(checked);
  (void)in.call_function("tri", {Value::ints(6)});
  std::uint64_t s6 = in.stats().steps;
  in.reset_stats();
  (void)in.call_function("tri", {Value::ints(60)});
  EXPECT_EQ(in.stats().steps, s6);
}

TEST(Interp, StatsCountWork) {
  lang::Program checked =
      lang::typecheck(lang::parse_program("fun f(n: int): seq(int) ="
                                          " [i <- [1 .. n] : i * i]"));
  Interpreter in(checked);
  (void)in.call_function("f", {Value::ints(10)});
  EXPECT_EQ(in.stats().iterations, 10u);
  EXPECT_GE(in.stats().scalar_ops, 10u);
  EXPECT_EQ(in.stats().calls, 1u);
  in.reset_stats();
  EXPECT_EQ(in.stats().iterations, 0u);
}

TEST(Interp, TransformedConstructs) {
  // The interpreter understands the V-form representation primitives via
  // boxed semantics (used as a second oracle for transformed code).
  using lang::Prim;
  lang::Program empty;
  Interpreter in(empty);

  auto vv = parse_value("[[1,2],[3]]");
  lang::ExprPtr lit = lang::parse_expression("[[1,2],[3]]");
  lang::ExprPtr typed = lang::typecheck_expression(empty, lit);

  lang::ExprPtr ext = lang::make_expr(
      lang::PrimCall{Prim::kExtract, 0, {typed, lang::make_expr(
          lang::IntLit{1}, lang::Type::int_())}, {}},
      lang::Type::seq(lang::Type::int_()));
  EXPECT_EQ(in.eval(ext), parse_value("[1,2,3]"));

  lang::ExprPtr ins = lang::make_expr(
      lang::PrimCall{Prim::kInsert, 0,
                     {ext, typed, lang::make_expr(lang::IntLit{1},
                                                  lang::Type::int_())},
                     {}},
      typed->type);
  EXPECT_EQ(in.eval(ins), vv);
}

}  // namespace
}  // namespace proteus::interp
