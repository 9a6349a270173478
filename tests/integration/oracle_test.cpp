// oracle_test.cpp — the linear-time front-end passes against the
// definitions they replaced.
//
//   * xform::FreeVars builds a node's free variables from its children's
//     memoized sets. The oracle is the former walk, which collects the
//     free variables of a subtree from scratch for every query.
//   * remove_dead_lets is one bottom-up pass that carries free-variable
//     sets up the tree. The oracle is the former pass: a let is dead when
//     the oracle walk does not find its variable free in the body, which
//     walks the body again at every let.
//   * plan_module analyzes each function once. The oracle,
//     analysis::detail::plan_module_two_pass, analyzes every function for
//     its summary and again for its plan.
//
// Each must agree exactly — same free sets, same V program text, same
// module image, same plans and M3xx findings — on every example program
// and on the programs of the fuzz generator.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lifetime.hpp"
#include "integration/program_gen.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "vm/compile.hpp"
#include "vm/module_io.hpp"
#include "xform/canon.hpp"
#include "xform/flatten.hpp"
#include "xform/freevars.hpp"
#include "xform/optimize.hpp"
#include "xform/pipeline.hpp"
#include "xform/translate.hpp"

namespace proteus {
namespace {

using namespace lang;

// --- oracles: the former free-variable walk and dead-let pass --------------

namespace oracle {

void collect(const ExprPtr& e, std::set<std::string>& bound,
             std::set<std::string>& free) {
  if (e == nullptr) return;
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        const auto scoped = [&](const std::string& var, auto&& walk) {
          const bool was_bound = bound.contains(var);
          bound.insert(var);
          walk();
          if (!was_bound) bound.erase(var);
        };
        if constexpr (std::is_same_v<T, VarRef>) {
          if (!node.is_function && !bound.contains(node.name)) {
            free.insert(node.name);
          }
        } else if constexpr (std::is_same_v<T, Let>) {
          collect(node.init, bound, free);
          scoped(node.var, [&] { collect(node.body, bound, free); });
        } else if constexpr (std::is_same_v<T, If>) {
          collect(node.cond, bound, free);
          collect(node.then_expr, bound, free);
          collect(node.else_expr, bound, free);
        } else if constexpr (std::is_same_v<T, Iterator>) {
          collect(node.domain, bound, free);
          scoped(node.var, [&] {
            collect(node.filter, bound, free);
            collect(node.body, bound, free);
          });
        } else if constexpr (std::is_same_v<T, Call>) {
          collect(node.callee, bound, free);
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          collect(node.fn, bound, free);
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          for (const ExprPtr& a : node.elems) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          collect(node.tuple, bound, free);
        }
      },
      e->node);
}

std::set<std::string> free_vars(const ExprPtr& e) {
  std::set<std::string> bound;
  std::set<std::string> free;
  collect(e, bound, free);
  return free;
}

ExprPtr remove_dead_lets(const ExprPtr& e);

std::vector<ExprPtr> remove_all(const std::vector<ExprPtr>& items) {
  std::vector<ExprPtr> out;
  out.reserve(items.size());
  for (const ExprPtr& it : items) out.push_back(remove_dead_lets(it));
  return out;
}

ExprPtr remove_dead_lets(const ExprPtr& e) {
  if (e == nullptr) return nullptr;
  return std::visit(
      [&](const auto& node) -> ExprPtr {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, Let>) {
          ExprPtr body = remove_dead_lets(node.body);
          if (!free_vars(body).contains(node.var)) return body;
          return make_expr(
              Let{node.var, remove_dead_lets(node.init), std::move(body)},
              e->type, e->loc);
        } else if constexpr (std::is_same_v<T, If>) {
          return make_expr(If{remove_dead_lets(node.cond),
                              remove_dead_lets(node.then_expr),
                              remove_dead_lets(node.else_expr)},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, PrimCall>) {
          return make_expr(PrimCall{node.op, node.depth,
                                    remove_all(node.args), node.lifted},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, FunCall>) {
          return make_expr(FunCall{node.name, node.depth,
                                   remove_all(node.args), node.lifted},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          return make_expr(
              IndirectCall{remove_dead_lets(node.fn), node.depth,
                           remove_all(node.args), node.lifted},
              e->type, e->loc);
        } else if constexpr (std::is_same_v<T, TupleExpr>) {
          return make_expr(TupleExpr{remove_all(node.elems), node.depth},
                           e->type, e->loc);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          return make_expr(
              TupleGet{remove_dead_lets(node.tuple), node.index, node.depth},
              e->type, e->loc);
        } else if constexpr (std::is_same_v<T, SeqExpr>) {
          return make_expr(SeqExpr{remove_all(node.elems), node.elem_type,
                                   node.depth},
                           e->type, e->loc);
        } else {
          return e;  // literals, variables, and un-flattened nodes
        }
      },
      e->node);
}

Program remove_dead_lets(const Program& program) {
  Program out;
  for (const FunDef& f : program.functions) {
    FunDef g = f;
    g.body = remove_dead_lets(f.body);
    out.functions.push_back(std::move(g));
  }
  return out;
}

}  // namespace oracle

// --- the checks -------------------------------------------------------------

/// Every node's memoized free set, queried through one FreeVars as the
/// flattener does, against the oracle walk.
void expect_free_vars_agree(xform::FreeVars& fv, const ExprPtr& e) {
  if (e == nullptr) return;
  std::set<std::string> names;
  for (const xform::FreeVars::Id id : fv.of(e)) names.insert(fv.name(id));
  ASSERT_EQ(names, oracle::free_vars(e)) << to_text(e);
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, Let>) {
          expect_free_vars_agree(fv, node.init);
          expect_free_vars_agree(fv, node.body);
        } else if constexpr (std::is_same_v<T, If>) {
          expect_free_vars_agree(fv, node.cond);
          expect_free_vars_agree(fv, node.then_expr);
          expect_free_vars_agree(fv, node.else_expr);
        } else if constexpr (std::is_same_v<T, Iterator>) {
          expect_free_vars_agree(fv, node.domain);
          expect_free_vars_agree(fv, node.filter);
          expect_free_vars_agree(fv, node.body);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          for (const ExprPtr& a : node.args) expect_free_vars_agree(fv, a);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          expect_free_vars_agree(fv, node.fn);
          for (const ExprPtr& a : node.args) expect_free_vars_agree(fv, a);
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          for (const ExprPtr& a : node.elems) expect_free_vars_agree(fv, a);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          expect_free_vars_agree(fv, node.tuple);
        }
      },
      e->node);
}

/// The free sets of the checked program and of the flattener's input;
/// then the front end up to R2, §4.5 and T1 twice — once with each
/// dead-let pass — comparing the V program text and the module image.
void expect_dead_lets_agree(const std::string& source) {
  xform::NameGen names;
  const Program checked = typecheck(parse_program(source));
  const Program canonical = xform::canonicalize(checked, names);
  xform::FreeVars fv;
  for (const Program* p : {&checked, &canonical}) {
    for (const FunDef& f : p->functions) expect_free_vars_agree(fv, f.body);
  }
  const Program flat = xform::flatten(canonical, names).program;
  const Program shared = xform::optimize_shared_rows(flat);
  const Program fast = xform::remove_dead_lets(shared);
  const Program slow = oracle::remove_dead_lets(shared);
  ASSERT_EQ(to_text(fast), to_text(slow));

  xform::NameGen names_fast = names;
  xform::NameGen names_slow = names;
  const Program vec_fast = xform::translate(fast, names_fast);
  const Program vec_slow = xform::translate(slow, names_slow);
  ASSERT_EQ(to_text(vec_fast), to_text(vec_slow));
  EXPECT_EQ(vm::module_bytes(*vm::compile_module(vec_fast)),
            vm::module_bytes(*vm::compile_module(vec_slow)));
}

void expect_plans_agree(const vm::Module& m) {
  const analysis::PlanResult once = analysis::plan_module(m);
  const analysis::PlanResult twice = analysis::detail::plan_module_two_pass(m);
  EXPECT_TRUE(once.plan == twice.plan);
  EXPECT_EQ(once.report.to_text(), twice.report.to_text());
  EXPECT_EQ(once.report.size(), twice.report.size());
}

/// Both checks on one program; the plans of its -O1 and -O0 modules.
void expect_oracles_agree(const std::string& source) {
  SCOPED_TRACE(source);
  expect_dead_lets_agree(source);
  const xform::Compiled c = xform::compile(source);
  expect_plans_agree(*c.module);
  expect_plans_agree(*c.module_o0);
}

std::vector<std::string> example_programs() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PROTEUS_SOURCE_DIR) + "/examples/programs")) {
    if (entry.path().extension() == ".p") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(Oracle, ExamplePrograms) {
  const std::vector<std::string> paths = example_programs();
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    expect_oracles_agree(ss.str());
  }
}

TEST(Oracle, ShadowingBinders) {
  // The generator never reuses a name; these do. An iterator variable or a
  // let variable that shadows a parameter is not bound in the iterator's
  // domain or the let's initializer.
  for (const char* source : {
           "fun f(x: int, v: seq(int)): seq(int) = "
           "[x <- [y <- v : x + y] : let x = x * 2 in x + 1]",
           "fun g(v: seq(int)): seq(seq(int)) = "
           "[x <- v | x > 0 : [v <- [1 .. x] : let v = v + x in v]]",
           "fun h(k: int, v: seq(int)): seq(int) = "
           "let k = [x <- v : x + k] in [x <- k | x > #k : x]",
       }) {
    expect_oracles_agree(source);
  }
}

TEST(Oracle, UnflattenedTreesKeepIteratorsIntact) {
  // On a checked (un-flattened) body the pass must leave iterators alone
  // yet still see the variables they use.
  const Program checked = typecheck(parse_program(
      "fun f(v: seq(int), k: int): seq(int) = "
      "let dead = k * 2 in let live = k + 1 in [x <- v : x + live]"));
  const ExprPtr body = checked.find("f")->body;
  EXPECT_EQ(to_text(xform::remove_dead_lets(body)),
            to_text(oracle::remove_dead_lets(body)));
}

TEST(Oracle, UnchangedSubtreesAreShared) {
  const Program checked = typecheck(parse_program(
      "fun f(k: int): int = let a = k + 1 in let b = a * 2 in b - a"));
  const ExprPtr body = checked.find("f")->body;
  EXPECT_EQ(xform::remove_dead_lets(body), body);  // nothing dead
}

class OracleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleFuzz, GeneratedPrograms) {
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 4; ++variant) {
    expect_oracles_agree(testing::fuzz_program(seed, variant));
  }
  expect_oracles_agree(testing::fuzz_helpers_program(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace proteus
