// Tests for the bytecode VM dispatch loop: results against the reference
// interpreter, its error messages, the per-opcode profile, and the
// Session-level run_vm / run_entry_vm entry points. (The VM's vector
// cost is pinned by StatsParity.VmCostMatchesGoldenTable.)
#include <gtest/gtest.h>

#include <string>

#include "testing.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using testing::val;

TEST(VmExec, ScalarsControlFlowAndCalls) {
  Session s(R"(
    fun fact(n: int): int = if n <= 1 then 1 else n * fact(n - 1)
    fun pick(b: bool, x: int, y: int): int = if b then x else y
  )");
  EXPECT_EQ(s.run_vm("fact", {val("6")}), val("720"));
  EXPECT_EQ(s.run_vm("pick", {val("true"), val("1"), val("2")}), val("1"));
  EXPECT_EQ(s.run_vm("pick", {val("false"), val("1"), val("2")}), val("2"));
}

TEST(VmExec, FlattenedRecursionMatchesOtherEngines) {
  Session s(R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else let p = v[1 + #v / 2] in
        qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
          ++ qs([x <- v | x > p : x])
  )");
  testing::expect_both(s, "qs", {val("[5,3,9,1,3,7,2]")},
                       "[1,2,3,3,5,7,9]");
  testing::expect_both(s, "qs", {val("([] : seq(int))")},
                       "([] : seq(int))");
}

TEST(VmExec, TuplesRealsAndIndirectCalls) {
  Session s(R"(
    fun norm2(p: (real, real)): real = p.1 * p.1 + p.2 * p.2
    fun apply(f: (int) -> int, xs: seq(int)): seq(int) = [x <- xs : f(x)]
    fun double(x: int): int = 2 * x
    fun use(xs: seq(int)): seq(int) = apply(double, xs)
  )");
  EXPECT_EQ(s.run_vm("norm2", {val("(3.0, 4.0)")}), val("25.0"));
  testing::expect_both(s, "use", {val("[1,2,3]")}, "[2,4,6]");
}

TEST(VmExec, EntryExpressionRunsOnTheVm) {
  Session s("fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]",
            "[k <- [1 .. 4] : sqs(k)]");
  interp::Value reference = s.run_entry_reference();
  EXPECT_EQ(s.run_entry_vm(), reference);
}

TEST(VmExec, PerOpcodeProfileIsPopulated) {
  Session s("fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]");
  s.set_vm_profile(true);
  (void)s.run_vm("sqs", {val("100")});
  const vm::VMStats& st = s.last_cost().vm_ops;
  EXPECT_GT(st.instructions, 0u);
  EXPECT_EQ(st.calls, 1u);
  const vm::OpProfile& build =
      st.per_op[static_cast<std::size_t>(vm::Op::kBuild)];
  const vm::OpProfile& ew =
      st.per_op[static_cast<std::size_t>(vm::Op::kElementwise)];
  EXPECT_EQ(build.count, 1u);   // range1(n)
  EXPECT_EQ(ew.count, 1u);      // i *^1 i
  EXPECT_GE(build.element_work, 100u);
  EXPECT_GE(ew.element_work, 100u);
  std::uint64_t total = 0;
  for (const vm::OpProfile& p : st.per_op) total += p.count;
  EXPECT_EQ(total, st.instructions);
}

TEST(VmExec, ErrorParityWithTreeExecutor) {
  // Unknown function and wrong arity throw EvalError; runaway recursion
  // trips the execution governor's depth budget (rt::RuntimeTrap T003,
  // not retryable — the degradation ladder must NOT mask it behind a
  // fallback engine).
  Session s("fun spin(n: int): int = spin(n + 1)");
  vm::VM machine(s.compiled().module);
  EXPECT_THROW((void)machine.call_function("nosuch", {}), EvalError);
  EXPECT_THROW((void)machine.call_function("spin", {}), EvalError);
  try {
    (void)s.run_vm("spin", {val("0")});
    FAIL() << "expected depth-limit RuntimeTrap";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kDepth);
    EXPECT_NE(std::string(e.what()).find("call depth limit exceeded"),
              std::string::npos);
  }
}

TEST(VmExec, EmptyFramesAndEmptyLiterals) {
  Session s(R"(
    fun rowsums(m: seq(seq(int))): seq(int) = [r <- m : sum(r)]
    fun nil(n: int): seq(int) = ([] : seq(int))
  )");
  testing::expect_both(s, "rowsums",
                       {val("[[1,2],([] : seq(int)),[3,4,5]]")}, "[3,0,12]");
  testing::expect_both(s, "rowsums", {val("([] : seq(seq(int)))")},
                       "([] : seq(int))");
  testing::expect_both(s, "nil", {val("3")}, "([] : seq(int))");
}

TEST(VmExec, VmIsReusableAcrossCalls) {
  Session s("fun inc(x: int): int = x + 1");
  vm::VM machine(s.compiled().module);
  for (int i = 0; i < 5; ++i) {
    kernels::VValue r =
        machine.call_function("inc", {kernels::VValue::ints(i)});
    EXPECT_EQ(r.as_int(), i + 1);
  }
  EXPECT_EQ(machine.stats().calls, 5u);
}

}  // namespace
}  // namespace proteus
