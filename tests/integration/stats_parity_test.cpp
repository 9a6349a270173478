// stats_parity_test.cpp — the machine-independent cost counters must be
// exactly that: machine-independent. Element work, segment work, the
// per-primitive tallies and the per-opcode VM profile have to come out
// bit-identical whether the vl kernels run serially or threaded, on
// inputs big enough to actually cross kParallelGrain and take the OpenMP
// paths. Any divergence means a kernel counts work differently when it
// parallelises — exactly the bug class this guards against.
//
// The golden table below pins the same counters to the values the
// retired tree-walking executor produced for these programs and inputs
// (it shared the VM's kernel table, and the two agreed exactly), so the
// VM's vector-model cost cannot drift unnoticed.
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "testing.hpp"
#include "vl/backend.hpp"

namespace {

using namespace proteus;
using proteus::testing::val;

const char* kQs = R"(
  fun qs(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else let p = v[1 + #v / 2] in
      qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
        ++ qs([x <- v | x > p : x])
)";

const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

const char* kRowSums = R"(
  fun rowsums(m: seq(seq(int))): seq(int) =
    [row <- m : sum([x <- row : x * x])]
)";

const char* kPrefix = R"(
  fun prefix(v: seq(int)): seq(int) =
    [i <- [1 .. #v] : sum([j <- [1 .. i] : v[j]])]
)";

interp::Value random_ints(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vl::Int> dist(-1000, 1000);
  interp::ValueList out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(interp::Value::ints(dist(rng)));
  return interp::Value::seq(std::move(out));
}

interp::Value ragged_rows(std::uint64_t seed, int rows, int big_row_len) {
  interp::ValueList out;
  for (int r = 0; r < rows; ++r) {
    // One row well past kParallelGrain, the rest short: the irregular
    // case where segmented kernels split serial/threaded differently.
    const int len = r == 0 ? big_row_len : 1 + r % 7;
    out.push_back(random_ints(seed + static_cast<std::uint64_t>(r), len));
  }
  return interp::Value::seq(std::move(out));
}

/// Runs `fn(args)` on the VM under `backend` and returns the full
/// published metric registry (deterministic: vm profiling is off, so no
/// wall-clock keys appear).
obs::MetricsRegistry::Map run_metrics(Session& session, vl::Backend backend,
                                      const std::string& fn,
                                      const interp::ValueList& args) {
  vl::BackendGuard guard(backend);
  (void)session.run_vm(fn, args);
  return session.last_cost().metrics.all();
}

void expect_parity(const char* program, const std::string& fn,
                   const interp::ValueList& args) {
  Session session(program);
  const auto serial = run_metrics(session, vl::Backend::kSerial, fn, args);
  const auto openmp = run_metrics(session, vl::Backend::kOpenMP, fn, args);
  EXPECT_EQ(serial, openmp)
      << fn << ": cost counters differ between serial and openmp backends";
  EXPECT_GT(serial.at("vl.element_work"), 0u) << fn;
}

struct GoldenCost {
  const char* program;
  const char* fn;
  interp::Value arg;
  /// vl.primitive_calls, vl.element_work, vm.calls and every vm.prim.*.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

TEST(StatsParity, VmCostMatchesGoldenTable) {
  const std::vector<GoldenCost> table = {
      {kQs, "qs", val("[9,4,8,2,7,1,6,3,5]"),
       {{"vl.primitive_calls", 102}, {"vl.element_work", 467},
        {"vm.calls", 13}, {"vm.prim.+", 6}, {"vm.prim./", 6},
        {"vm.prim.<", 6}, {"vm.prim.<=", 13}, {"vm.prim.==", 6},
        {"vm.prim.>", 6}, {"vm.prim.concat", 12}, {"vm.prim.length", 37},
        {"vm.prim.range1", 18}, {"vm.prim.restrict", 18},
        {"vm.prim.seq_index", 24}}},
      {kQuicksort, "quicksort", random_ints(3, 6000),
       {{"vl.primitive_calls", 1751}, {"vl.element_work", 2070402},
        {"vm.calls", 23}, {"vm.prim.+", 22}, {"vm.prim./", 22},
        {"vm.prim.<", 22}, {"vm.prim.<=", 23}, {"vm.prim.==", 22},
        {"vm.prim.>", 22}, {"vm.prim.any_true", 44},
        {"vm.prim.combine", 22}, {"vm.prim.concat", 44},
        {"vm.prim.dist", 63}, {"vm.prim.empty_frame", 4},
        {"vm.prim.extract", 147}, {"vm.prim.insert", 84},
        {"vm.prim.length", 155}, {"vm.prim.not", 22},
        {"vm.prim.range1", 110}, {"vm.prim.restrict", 106},
        {"vm.prim.seq_index", 92}, {"vm.prim.seq_index_inner", 84}}},
      {kRowSums, "rowsums", ragged_rows(7, 64, 8192),
       {{"vl.primitive_calls", 11}, {"vl.element_work", 42604},
        {"vm.calls", 1}, {"vm.prim.*", 1}, {"vm.prim.extract", 2},
        {"vm.prim.insert", 1}, {"vm.prim.length", 2},
        {"vm.prim.range1", 2}, {"vm.prim.seq_index", 1},
        {"vm.prim.seq_index_inner", 1}, {"vm.prim.sum", 1}}},
      {kPrefix, "prefix", random_ints(11, 200),
       {{"vl.primitive_calls", 6}, {"vl.element_work", 60900},
        {"vm.calls", 1}, {"vm.prim.extract", 1}, {"vm.prim.insert", 1},
        {"vm.prim.length", 1}, {"vm.prim.range1", 2},
        {"vm.prim.seq_index", 1}, {"vm.prim.sum", 1}}},
  };
  for (const GoldenCost& row : table) {
    Session session(row.program);
    const auto got =
        run_metrics(session, vl::Backend::kSerial, row.fn, {row.arg});
    std::size_t prims = 0;
    for (const auto& [key, want] : row.counters) {
      ASSERT_TRUE(got.contains(key)) << row.fn << ": no " << key;
      EXPECT_EQ(got.at(key), want) << row.fn << ": " << key;
      if (key.rfind("vm.prim.", 0) == 0) prims += 1;
    }
    std::size_t got_prims = 0;
    for (const auto& [key, value] : got) {
      if (key.rfind("vm.prim.", 0) == 0) got_prims += 1;
    }
    EXPECT_EQ(got_prims, prims) << row.fn << ": extra vm.prim.* counters";
  }
}

TEST(StatsParity, QuicksortSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  expect_parity(kQuicksort, "quicksort", {random_ints(3, 6000)});
}

TEST(StatsParity, IrregularRowSumsSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  expect_parity(kRowSums, "rowsums", {ragged_rows(7, 64, 8192)});
}

TEST(StatsParity, NestedPrefixSumsSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  // n rows of lengths 1..n flatten to n(n+1)/2 ~ 20k elements.
  expect_parity(kPrefix, "prefix", {random_ints(11, 200)});
}

}  // namespace
