#include "programs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "interp/interp.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"

namespace perfbench {

const char* const kQuicksort = R"(
fun quicksort(v: seq(int)): seq(int) =
  if #v <= 1 then v
  else
    let pivot = v[1 + (#v / 2)] in
    let parts = [part <- [[x <- v | x < pivot : x],
                          [x <- v | x > pivot : x]] : quicksort(part)] in
    parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

const char* const kSpmv = R"(
fun spmv(rows: seq(seq((int, real))), x: seq(real)): seq(real) =
  [row <- rows : sum([e <- row : e.2 * x[e.1]])]
)";

const char* const kQuickhull = R"(
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
)";

namespace {

std::int64_t uniform(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

/// The size at quantile u in (0,1) of the log-uniform distribution on
/// [lo, hi]: small and large inputs equally likely per octave, so
/// latencies form a continuum rather than a few modes.
int log_size(double u, int lo, int hi) {
  const double l = std::log(lo);
  const int n = static_cast<int>(std::exp(l + u * (std::log(hi + 1.0) - l)));
  return std::clamp(n, lo, hi);
}

int log_uniform(Rng& rng, int lo, int hi) {
  return log_size(std::uniform_real_distribution<double>(0, 1)(rng), lo, hi);
}

double random_real(Rng& rng) {
  std::int64_t k = uniform(rng, -1000, 999);
  if (k >= 0) ++k;  // never 0, so no -0.0 / 0.0 ambiguity in literals
  return static_cast<double>(k) / 1000.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool number_start(const std::string& s, std::size_t i) {
  const auto digit = [&](std::size_t k) {
    return k < s.size() && s[k] >= '0' && s[k] <= '9';
  };
  return digit(i) || (s[i] == '-' && digit(i + 1));
}

}  // namespace

Value random_ints(Rng& rng, int n, std::int64_t lo, std::int64_t hi) {
  ValueList out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(Value::ints(uniform(rng, lo, hi)));
  return Value::seq(std::move(out));
}

Value random_reals(Rng& rng, int n) {
  ValueList out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(Value::reals(random_real(rng)));
  return Value::seq(std::move(out));
}

SparseMatrix random_matrix(Rng& rng, int rows, int cols, int max_log2) {
  SparseMatrix m;
  ValueList boxed_rows;
  m.row_ptr.push_back(0);
  for (int r = 0; r < rows; ++r) {
    const int nnz = 1 << uniform(rng, 0, max_log2);
    ValueList row;
    for (int k = 0; k < nnz; ++k) {
      const std::int64_t c = uniform(rng, 1, cols);
      const double v = random_real(rng);
      row.push_back(Value::tuple({Value::ints(c), Value::reals(v)}));
      m.col.push_back(c - 1);
      m.val.push_back(v);
    }
    boxed_rows.push_back(Value::seq(std::move(row)));
    m.row_ptr.push_back(static_cast<std::int64_t>(m.col.size()));
  }
  m.boxed = Value::seq(std::move(boxed_rows));
  return m;
}

Value random_points(Rng& rng, int n, std::int64_t range) {
  ValueList pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Value::tuple({Value::ints(uniform(rng, -range, range)),
                                Value::ints(uniform(rng, -range, range))}));
  }
  return Value::seq(std::move(pts));
}

std::string literal(const Value& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_real()) {
    std::string s = number_text(v.as_real());
    if (s.find_first_of(".e") == std::string::npos) s += ".0";
    return s;
  }
  const bool seq = v.is_seq();
  const ValueList& elems = seq ? v.as_seq() : v.as_tuple();
  if (seq && elems.empty()) {
    throw std::logic_error("generators never produce empty sequences");
  }
  std::string out(1, seq ? '[' : '(');
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i > 0) out += ',';
    out += literal(elems[i]);
  }
  out += seq ? ']' : ')';
  return out;
}

bool same_text(const std::string& expected, const std::string& got) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < expected.size() && j < got.size()) {
    if (number_start(expected, i) && number_start(got, j)) {
      char* end_e = nullptr;
      char* end_g = nullptr;
      const double a = std::strtod(expected.c_str() + i, &end_e);
      const double b = std::strtod(got.c_str() + j, &end_g);
      const std::string ta(expected.c_str() + i, static_cast<const char*>(end_e));
      const std::string tb(got.c_str() + j, static_cast<const char*>(end_g));
      const bool real =
          ta.find_first_of(".eE") != std::string::npos ||
          tb.find_first_of(".eE") != std::string::npos;
      if (real) {
        const double scale = std::max(std::fabs(a), std::fabs(b));
        if (std::fabs(a - b) > 2e-5 * scale + 1e-12) return false;
      } else if (ta != tb) {
        return false;
      }
      i += ta.size();
      j += tb.size();
      continue;
    }
    if (expected[i] != got[j]) return false;
    ++i;
    ++j;
  }
  return i == expected.size() && j == got.size();
}

Value reference_eval(const std::string& source, const std::string& fun,
                     const ValueList& args) {
  const proteus::lang::Program checked =
      proteus::lang::typecheck(proteus::lang::parse_program(source));
  proteus::interp::Interpreter interp(checked);
  return interp.call_function(fun, args);
}

// --- serve-warm pool --------------------------------------------------------

std::vector<Call> warm_pool(Rng& rng, const std::string& repo_dir, int count) {
  const auto program = [](std::string text) {
    return std::make_shared<const std::string>(std::move(text));
  };
  const std::string dir = repo_dir + "/examples/programs/";
  const auto qsort = program(kQuicksort);
  const auto spmv = program(kSpmv);
  const auto qhull = program(kQuickhull);
  const auto sort_p = program(read_file(dir + "sort.p"));
  const auto stats_p = program(read_file(dir + "stats.p"));
  const auto primes_p = program(read_file(dir + "primes.p"));
  const auto graph_p = program(read_file(dir + "graph.p"));
  const auto mandel_p = program(read_file(dir + "mandel.p"));
  const auto nbody_p = program(read_file(dir + "nbody.p"));

  const auto body = [&rng]() {
    return Value::tuple(
        {Value::tuple({Value::reals(random_real(rng)),
                       Value::reals(random_real(rng))}),
         Value::tuple({Value::reals(random_real(rng)),
                       Value::reals(random_real(rng))}),
         Value::reals(std::fabs(random_real(rng)))});
  };

  // Family weights: the Section 6 programs make up two thirds of the mix.
  // Each family's primary size comes from a quantile u of its
  // distribution, stratified over the family's share of the pool, so
  // every seed gets the same sizes (and so the same work); the seed
  // picks the element values and the order.
  struct Family {
    int weight;
    std::function<Call(double u)> make;
  };
  const std::vector<Family> families = {
      {4, [&](double u) { return Call{"qsort", qsort, "quicksort",
                            {random_ints(rng, log_size(u, 1, 256),
                                         -1000, 1000)}, {}, ""}; }},
      {3, [&](double u) {
         const int rows = log_size(u, 1, 48);
         SparseMatrix m = random_matrix(rng, rows, 16, 4);
         return Call{"spmv", spmv, "spmv",
                     {m.boxed, random_reals(rng, 16)}, {}, ""};
       }},
      {3, [&](double u) { return Call{"qhull", qhull, "quickhull",
                            {random_points(rng, log_size(u, 3, 200),
                                           1000)}, {}, ""}; }},
      {1, [&](double u) { return Call{"sort.p", sort_p, "sqs",
                            {Value::ints(log_size(u, 1, 300))}, {},
                            ""}; }},
      {1, [&](double u) {
         ValueList rows;
         const int n = log_size(u, 1, 8);
         for (int r = 0; r < n; ++r) {
           rows.push_back(random_ints(rng, log_uniform(rng, 1, 16), -99, 99));
         }
         return Call{"sort.p", sort_p, "sortall",
                     {Value::seq(std::move(rows))}, {}, ""};
       }},
      {1, [&](double u) {
         ValueList rows;
         const int n = log_size(u, 1, 8);
         for (int r = 0; r < n; ++r) {
           rows.push_back(random_reals(rng, log_uniform(rng, 1, 16)));
         }
         return Call{"stats.p", stats_p, "rowvars",
                     {Value::seq(std::move(rows))}, {}, ""};
       }},
      {1, [&](double u) { return Call{"primes.p", primes_p, "primes_upto",
                            {Value::ints(log_size(u, 2, 150))}, {},
                            ""}; }},
      {1, [&](double u) {
         const int v = log_size(u, 2, 24);
         ValueList adj;
         for (int i = 0; i < v; ++i) {
           adj.push_back(random_ints(rng, static_cast<int>(uniform(rng, 1, 3)),
                                     1, v));
         }
         return Call{"graph.p", graph_p, "count_reachable",
                     {Value::seq(std::move(adj)),
                      Value::ints(uniform(rng, 1, v))}, {}, ""};
       }},
      {1, [&](double u) { return Call{"mandel.p", mandel_p, "mass",
                            {Value::ints(log_size(u, 1, 8)),
                             Value::ints(log_uniform(rng, 1, 8)),
                             Value::ints(log_uniform(rng, 1, 16))}, {},
                            ""}; }},
      {1, [&](double u) {
         ValueList bodies;
         const int n = log_size(u, 2, 12);  // see README: one body
         for (int i = 0; i < n; ++i) bodies.push_back(body());
         return Call{"nbody.p", nbody_p, "step",
                     {Value::seq(std::move(bodies)), Value::reals(0.01)}, {},
                     ""};
       }},
  };
  int total = 0;
  for (const Family& f : families) total += f.weight;

  std::vector<Call> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (const Family& f : families) {
    const int share = count * f.weight / total;
    for (int i = 0; i < share; ++i) {
      Call call = f.make((i + 0.5) / share);
      for (const Value& a : call.args) call.arg_texts.push_back(literal(a));
      call.expected = proteus::interp::to_text(
          reference_eval(*call.source, call.fun, call.args));
      pool.push_back(std::move(call));
    }
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

// --- serve-cold generator ---------------------------------------------------

ColdGenerator::ColdGenerator(Rng& rng) {
  const auto inputs = [](std::vector<ValueList> sets) {
    std::vector<Input> out;
    for (ValueList& args : sets) {
      Input in;
      for (const Value& a : args) in.arg_texts.push_back(literal(a));
      in.args = std::move(args);
      out.push_back(std::move(in));
    }
    return out;
  };
  std::vector<ValueList> qsort_in;
  std::vector<ValueList> spmv_in;
  std::vector<ValueList> qhull_in;
  std::vector<ValueList> stats_in;
  std::vector<ValueList> primes_in;
  for (int i = 0; i < 4; ++i) {
    qsort_in.push_back({random_ints(rng, 4 + 4 * i, -99, 99)});
    spmv_in.push_back({random_matrix(rng, 2 + 2 * i, 8, 2).boxed,
                       random_reals(rng, 8)});
    qhull_in.push_back({random_points(rng, 6 + 4 * i, 50)});
    stats_in.push_back({Value::seq({random_reals(rng, 1 + i),
                                    random_reals(rng, 3)})});
    primes_in.push_back({Value::ints(10 + 7 * i)});
  }

  // Weights 5 quicksort : 2 spmv : 2 quickhull : 1 stats : 1 primes put
  // the pooled p50 well inside the quicksort latencies, not on a gap
  // between two templates' latencies.
  templates_ = {
      {"qsort",
       R"(
fun quicksort@S(v: seq(int)): seq(int) =
  if #v <= 1 then v
  else
    let pivot = v[1 + (#v / @K)] in
    let parts = [part <- [[x <- v | x < pivot : x],
                          [x <- v | x > pivot : x]] : quicksort@S(part)] in
    parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)",
       "quicksort", {"2", "3", "4"}, inputs(qsort_in), {}, 5},
      {"spmv",
       R"(
fun spmv@S(rows: seq(seq((int, real))), x: seq(real)): seq(real) =
  [row <- rows : sum([e <- row : e.2 * x[e.1]]) * @K]
)",
       "spmv", {"1.0", "2.0", "0.5"}, inputs(spmv_in), {}, 2},
      // The plain Section 6 program with its four functions marked.
      {"qhull",
       std::regex_replace(kQuickhull,
                          std::regex(R"(\b(cross|farthest|hullside|quickhull)\b)"),
                          "$1@S"),
       "quickhull", {""}, inputs(qhull_in), {}, 2},
      {"stats",
       R"(
fun mean@S(v: seq(real)): real = sum(v) / real(#v)
fun centered@S(v: seq(real)): seq(real) = let m = mean@S(v) in [x <- v : x - m]
fun variance@S(v: seq(real)): real =
  sum([x <- centered@S(v) : x * x]) / real(#v)
fun rowvars@S(m: seq(seq(real))): seq(real) = [row <- m : variance@S(row) * @K]
)",
       "rowvars", {"1.0", "10.0"}, inputs(stats_in), {}, 1},
      {"primes",
       R"(
fun divisors@S(n: int): seq(int) = [d <- [1 .. n] | n mod d == 0 : d]
fun is_prime@S(n: int): bool = n >= 2 and #divisors@S(n) == @K
fun primes_upto@S(n: int): seq(int) = [k <- [2 .. n] | is_prime@S(k) : k]
)",
       "primes_upto", {"2", "3"}, inputs(primes_in), {}, 1},
  };
  for (Template& t : templates_) {
    total_weight_ += t.weight;
    for (const std::string& variant : t.variants) {
      std::vector<std::string> row;
      const std::string source = instantiate(t, "", variant);
      for (const Input& in : t.inputs) {
        row.push_back(proteus::interp::to_text(
            reference_eval(source, t.fun, in.args)));
      }
      t.expected.push_back(std::move(row));
    }
  }
}

std::string ColdGenerator::instantiate(const Template& t,
                                       const std::string& suffix,
                                       const std::string& variant) {
  std::string out;
  out.reserve(t.text.size() + 64);
  for (std::size_t i = 0; i < t.text.size(); ++i) {
    if (t.text[i] == '@' && i + 1 < t.text.size()) {
      if (t.text[i + 1] == 'S') {
        out += suffix;
        ++i;
        continue;
      }
      if (t.text[i + 1] == 'K') {
        out += variant;
        ++i;
        continue;
      }
    }
    out += t.text[i];
  }
  return out;
}

void ColdGenerator::make(Rng& rng, const std::string& tag,
                         std::uint64_t serial, Call* call) const {
  std::int64_t pick = uniform(rng, 0, total_weight_ - 1);
  std::size_t k = 0;
  while (pick >= templates_[k].weight) pick -= templates_[k++].weight;
  const Template& t = templates_[k];
  const auto v = static_cast<std::size_t>(
      uniform(rng, 0, static_cast<std::int64_t>(t.variants.size()) - 1));
  const auto i = static_cast<std::size_t>(
      uniform(rng, 0, static_cast<std::int64_t>(t.inputs.size()) - 1));
  const std::string suffix = "_" + tag + "_" + std::to_string(serial);
  call->family = t.family;
  call->source = std::make_shared<const std::string>(
      instantiate(t, suffix, t.variants[v]));
  call->fun = t.fun + suffix;
  call->args = t.inputs[i].args;
  call->arg_texts = t.inputs[i].arg_texts;
  call->expected = t.expected[v][i];
}

}  // namespace perfbench
