// bulk — in-process, closed loop, one thread, serial vl backend: one
// Session per Section 6 program, built once, runs run_vm over and over on
// large seeded inputs. Almost all the time goes to the flat primitives
// and the boxed<->flat conversion of the large arguments.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/proteus.hpp"
#include "harness.hpp"
#include "programs.hpp"

namespace perfbench {

namespace {

constexpr int kSortN = 100000;
constexpr int kSpmvRows = 4096;
constexpr int kSpmvCols = 1024;
constexpr int kHullN = 20000;
/// One round of the fixed mix: 1 quicksort, 20 spmv, 8 quickhull. The
/// counts keep the pooled p50 inside the spmv mode and p99 inside the
/// quicksort mode, so neither sits on a boundary between programs.
constexpr int kRoundSpmv = 20;
constexpr int kRoundHull = 8;
constexpr int kSetupReps = 5;

std::vector<double> csr_spmv(const SparseMatrix& m,
                             const std::vector<double>& x) {
  std::vector<double> y(m.row_ptr.size() - 1);
  for (std::size_t r = 0; r + 1 < m.row_ptr.size(); ++r) {
    double acc = 0;
    for (auto k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      acc += m.val[kk] * x[static_cast<std::size_t>(m.col[kk])];
    }
    y[r] = acc;
  }
  return y;
}

/// Keeps the native baselines' results observable.
volatile double g_sink = 0;

}  // namespace

Result run_bulk(const Options& opt) {
  Result res;
  Rng rng(opt.seed);

  // Inputs and references (the benchmark's own work: not in setup_s).
  const Value sort_in = random_ints(rng, kSortN, -1000000, 1000000);
  const SparseMatrix matrix = random_matrix(rng, kSpmvRows, kSpmvCols, 6);
  const Value x = random_reals(rng, kSpmvCols);
  const Value points = random_points(rng, kHullN, 1000000);

  std::vector<std::int64_t> sort_ref;
  for (const Value& v : sort_in.as_seq()) sort_ref.push_back(v.as_int());
  std::vector<double> xs;
  for (const Value& v : x.as_seq()) xs.push_back(v.as_real());
  // Per-row tolerance scale: sum |a_ij * x_j| bounds the rounding error
  // of any summation order.
  std::vector<double> spmv_scale(kSpmvRows);
  for (std::size_t r = 0; r < spmv_scale.size(); ++r) {
    for (auto k = matrix.row_ptr[r]; k < matrix.row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      spmv_scale[r] +=
          std::fabs(matrix.val[kk] * xs[static_cast<std::size_t>(matrix.col[kk])]);
    }
  }
  std::sort(sort_ref.begin(), sort_ref.end());
  const std::vector<double> spmv_ref = csr_spmv(matrix, xs);
  const Value hull_ref = reference_eval(kQuickhull, "quickhull", {points});

  // setup_s: constructing the three Sessions (each compiles its program
  // through the whole pipeline); median of several.
  std::vector<double> setups;
  std::unique_ptr<proteus::Session> qsort;
  std::unique_ptr<proteus::Session> spmv;
  std::unique_ptr<proteus::Session> qhull;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    qsort = std::make_unique<proteus::Session>(kQuicksort);
    spmv = std::make_unique<proteus::Session>(kSpmv);
    qhull = std::make_unique<proteus::Session>(kQuickhull);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const auto check_sort = [&](const Value& got) {
    const proteus::interp::ValueList& s = got.as_seq();
    if (s.size() != sort_ref.size()) return false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!s[i].is_int() || s[i].as_int() != sort_ref[i]) return false;
    }
    return true;
  };
  const auto check_spmv = [&](const Value& got) {
    const proteus::interp::ValueList& s = got.as_seq();
    if (s.size() != spmv_ref.size()) return false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (std::fabs(s[i].as_real() - spmv_ref[i]) >
          1e-9 * spmv_scale[i] + 1e-300) {
        return false;
      }
    }
    return true;
  };

  std::vector<double> sort_ms;
  std::vector<double> spmv_ms;
  std::vector<double> hull_ms;
  std::vector<double> all_us;
  double busy_s = 0;
  const auto timed = [&](proteus::Session& s, const char* fun,
                         const proteus::interp::ValueList& args,
                         std::vector<double>* ms) {
    const std::uint64_t t0 = now_ns();
    Value out = s.run_vm(fun, args);
    const double dt = static_cast<double>(now_ns() - t0);
    ms->push_back(dt / 1e6);
    all_us.push_back(dt / 1e3);
    busy_s += dt / 1e9;
    return out;
  };

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  // The native baselines run once a round, under the same host conditions
  // as the evaluations they are compared with.
  std::vector<double> native_sort_ms;
  std::vector<double> native_spmv_ms;
  for (int round = 0; round == 0 || now_ns() < deadline; ++round) {
    std::vector<std::int64_t> unsorted;
    for (const Value& v : sort_in.as_seq()) unsorted.push_back(v.as_int());
    std::uint64_t t0 = now_ns();
    std::sort(unsorted.begin(), unsorted.end());
    native_sort_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    const std::vector<double> y = csr_spmv(matrix, xs);
    native_spmv_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    g_sink = g_sink + y[0] + static_cast<double>(unsorted[0]);
    res.check(check_sort(timed(*qsort, "quicksort", {sort_in}, &sort_ms)),
              "bulk quicksort n=100000");
    for (int i = 0; i < kRoundSpmv; ++i) {
      if (round > 0 && now_ns() >= deadline) break;
      res.check(check_spmv(timed(*spmv, "spmv", {matrix.boxed, x}, &spmv_ms)),
                "bulk spmv 4096 rows");
      if (i < kRoundHull) {
        res.check(timed(*qhull, "quickhull", {points}, &hull_ms) == hull_ref,
                  "bulk quickhull n=20000");
      }
    }
  }

  res.add("setup_s", median(setups), "s");
  res.add("p50_us", median(all_us), "us");
  res.note("p99_us " + number_text(quantile(all_us, 0.99)) +
           " us (tail latency: reported, not gated)");
  res.note("max_rps " +
           number_text(static_cast<double>(all_us.size()) / busy_s) +
           " 1/s (evaluations per busy second: reported, not gated)");
  res.add("qsort_ms", median(sort_ms), "ms");
  res.add("spmv_ms", median(spmv_ms), "ms");
  res.add("qhull_ms", median(hull_ms), "ms");
  res.add("peak_rss_mb", peak_rss_mb("self"), "MB");

  res.note("samples: qsort=" + std::to_string(sort_ms.size()) +
           " spmv=" + std::to_string(spmv_ms.size()) +
           " qhull=" + std::to_string(hull_ms.size()) +
           " (p50/p99 pooled over all " + std::to_string(all_us.size()) +
           " evaluations)");
  const double native_sort = median(native_sort_ms);
  const double native_spmv = median(native_spmv_ms);
  res.note("reference std::sort n=100000: " + number_text(native_sort) +
           " ms (qsort_ms is " + number_text(median(sort_ms) / native_sort) +
           "x)");
  res.note("reference CSR spmv 4096 rows: " + number_text(native_spmv) +
           " ms (spmv_ms is " + number_text(median(spmv_ms) / native_spmv) +
           "x)");
  return res;
}

}  // namespace perfbench
