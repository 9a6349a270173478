// bench_compile_phases — the front end, one phase per benchmark.
//
// xform::compile runs parse → check → R1 → R2 → §4.5 optimizations → T1
// → shape analysis → assemble → fuse → verify → plan. Each case below
// times one of those public calls on the output of the phases before it
// (prepared once, outside the timed loop), plus the whole compile.
//
// Inputs:
//   qsort, spmv, qhull, stats, primes — the shapes of the five program
//     templates a cold proteusd request compiles;
//   lets/N — one comprehension whose body is N chained lets. The rules
//     are syntax-directed, so every phase should scale linearly in N;
//     the complexity fit printed after lets/125..lets/500 says whether it
//     does.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lifetime.hpp"
#include "analysis/shape.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "vm/compile.hpp"
#include "vm/fuse.hpp"
#include "vm/verify.hpp"
#include "xform/canon.hpp"
#include "xform/flatten.hpp"
#include "xform/optimize.hpp"
#include "xform/pipeline.hpp"
#include "xform/translate.hpp"

namespace {

using namespace proteus;

const std::map<std::string, std::string>& templates() {
  static const std::map<std::string, std::string> programs = {
      {"qsort", R"(
fun quicksort(v: seq(int)): seq(int) =
  if #v <= 1 then v
  else
    let pivot = v[1 + (#v / 2)] in
    let parts = [part <- [[x <- v | x < pivot : x],
                          [x <- v | x > pivot : x]] : quicksort(part)] in
    parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)"},
      {"spmv", R"(
fun spmv(rows: seq(seq((int, real))), x: seq(real)): seq(real) =
  [row <- rows : sum([e <- row : e.2 * x[e.1]]) * 2.0]
)"},
      {"qhull", R"(
fun cross(o: (int,int), a: (int,int), b: (int,int)): int =
  (a.1 - o.1) * (b.2 - o.2) - (a.2 - o.2) * (b.1 - o.1)

fun farthest(l: (int,int), r: (int,int), pts: seq((int,int))): (int,int) =
  let ds = [p <- pts : cross(l, r, p)] in
  let best = maxval(ds) in
  [i <- [1 .. #pts] | ds[i] == best : pts[i]][1]

fun hullside(l: (int,int), r: (int,int), pts: seq((int,int)))
    : seq((int,int)) =
  let above = [p <- pts | cross(l, r, p) > 0 : p] in
  if #above == 0 then ([] : seq((int,int)))
  else
    let m = farthest(l, r, above) in
    let halves = [side <- [(l, m), (m, r)]
                  : hullside(side.1, side.2, above)] in
    halves[1] ++ [m] ++ halves[2]

fun quickhull(pts: seq((int,int))): seq((int,int)) =
  let xs = [p <- pts : p.1] in
  let lx = minval(xs) in
  let rx = maxval(xs) in
  let ly = minval([p <- pts | p.1 == lx : p.2]) in
  let ry = maxval([p <- pts | p.1 == rx : p.2]) in
  let l = (lx, ly) in
  let r = (rx, ry) in
  [l] ++ hullside(l, r, pts) ++ [r] ++ hullside(r, l, pts)
)"},
      {"stats", R"(
fun mean(v: seq(real)): real = sum(v) / real(#v)
fun centered(v: seq(real)): seq(real) = let m = mean(v) in [x <- v : x - m]
fun variance(v: seq(real)): real =
  sum([x <- centered(v) : x * x]) / real(#v)
fun rowvars(m: seq(seq(real))): seq(real) = [row <- m : variance(row) * 10.0]
)"},
      {"primes", R"(
fun divisors(n: int): seq(int) = [d <- [1 .. n] | n mod d == 0 : d]
fun is_prime(n: int): bool = n >= 2 and #divisors(n) == 2
fun primes_upto(n: int): seq(int) = [k <- [2 .. n] | is_prime(k) : k]
)"},
  };
  return programs;
}

/// [x <- v : let a1 = x + 1 in let a2 = a1 + 2 in ... in aN]
std::string chained_lets(int n) {
  std::string s = "fun chain(v: seq(int)): seq(int) = [x <- v : ";
  for (int i = 1; i <= n; ++i) {
    s += "let a";
    s += std::to_string(i);
    s += " = ";
    s += i == 1 ? std::string("x") : "a" + std::to_string(i - 1);
    s += " + ";
    s += std::to_string(i % 7);
    s += " in ";
  }
  s += "a";
  s += std::to_string(n);
  s += "]";
  return s;
}

/// Every phase's input, prepared once.
struct Stages {
  std::string source;
  lang::Program parsed;
  lang::Program checked;
  xform::NameGen names_after_r1;
  lang::Program canonical;
  xform::NameGen names_after_r2;
  lang::Program flat;
  lang::Program optimized;
  lang::Program vec;
  std::shared_ptr<const vm::Module> assembled;
  std::shared_ptr<const vm::Module> module;

  explicit Stages(std::string text) : source(std::move(text)) {
    xform::NameGen names;
    parsed = lang::parse_program(source);
    checked = lang::typecheck(parsed);
    canonical = xform::canonicalize(checked, names);
    names_after_r1 = names;
    flat = xform::flatten(canonical, names).program;
    names_after_r2 = names;
    optimized =
        xform::remove_dead_lets(xform::optimize_shared_rows(flat));
    vec = xform::translate(optimized, names);
    std::shared_ptr<vm::Module> m = vm::compile_module(vec);
    // The calling convention the pipeline attaches before fuse and plan.
    m->signatures.resize(m->functions.size());
    for (std::size_t i = 0; i < m->functions.size(); ++i) {
      const lang::FunDef* def = checked.find(m->functions[i].name);
      if (def == nullptr || def->result == nullptr) continue;
      vm::Signature& sig = m->signatures[i];
      sig.present = true;
      for (const lang::Param& p : def->params) sig.params.push_back(p.type);
      sig.result = def->result;
    }
    assembled = m;
    module = vm::optimize_module(*assembled);
  }
};

const Stages& stages(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Stages>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    std::string text;
    if (name.rfind("lets/", 0) == 0) {
      text = chained_lets(std::stoi(name.substr(5)));
    } else {
      text = templates().at(name);
    }
    it = cache.emplace(name, std::make_unique<Stages>(std::move(text))).first;
  }
  return *it->second;
}

using Phase = void (*)(const Stages&);

/// In xform::compile's order.
const std::vector<std::pair<std::string, Phase>>& phases() {
  static const std::vector<std::pair<std::string, Phase>> table = {
      {"parse",
       [](const Stages& s) {
         benchmark::DoNotOptimize(lang::parse_program(s.source));
       }},
      {"check",
       [](const Stages& s) {
         benchmark::DoNotOptimize(lang::typecheck(s.parsed));
       }},
      {"r1",
       [](const Stages& s) {
         xform::NameGen names;
         benchmark::DoNotOptimize(xform::canonicalize(s.checked, names));
       }},
      {"r2",
       [](const Stages& s) {
         xform::NameGen names = s.names_after_r1;
         benchmark::DoNotOptimize(xform::flatten(s.canonical, names));
       }},
      {"opt45",
       [](const Stages& s) {
         benchmark::DoNotOptimize(
             xform::remove_dead_lets(xform::optimize_shared_rows(s.flat)));
       }},
      {"t1",
       [](const Stages& s) {
         xform::NameGen names = s.names_after_r2;
         benchmark::DoNotOptimize(xform::translate(s.optimized, names));
       }},
      {"shape",
       [](const Stages& s) {
         if (!analysis::analyze_program(s.vec).ok()) {
           throw std::runtime_error("shape analysis rejected the program");
         }
       }},
      {"assemble",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::compile_module(s.vec));
       }},
      {"fuse",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::optimize_module(*s.assembled));
       }},
      {"verify",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::verify_module(*s.module));
       }},
      {"plan",
       [](const Stages& s) {
         // Both modules, as xform::compile plans the -O1 and -O0 images.
         benchmark::DoNotOptimize(analysis::plan_module(*s.module));
         benchmark::DoNotOptimize(analysis::plan_module(*s.assembled));
       }},
      {"compile",
       [](const Stages& s) {
         benchmark::DoNotOptimize(xform::compile(s.source));
       }},
  };
  return table;
}

void run_phase(benchmark::State& state, Phase phase, const Stages& s) {
  for (auto _ : state) phase(s);
}

void register_all() {
  for (const auto& [name, phase] : phases()) {
    for (const auto& [input, text] : templates()) {
      (void)text;
      benchmark::RegisterBenchmark(
          (name + "/" + input).c_str(),
          [phase = phase, input = input](benchmark::State& st) {
            run_phase(st, phase, stages(input));
          })
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(
        (name + "/lets").c_str(),
        [phase = phase](benchmark::State& st) {
          run_phase(st, phase, stages("lets/" + std::to_string(st.range(0))));
          st.SetComplexityN(st.range(0));
        })
        ->Arg(125)
        ->Arg(250)
        ->Arg(500)
        ->Complexity(benchmark::oN)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
