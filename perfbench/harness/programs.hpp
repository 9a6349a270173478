// programs.hpp — the P programs the workloads run, their seeded input
// generators, and the references outputs are checked against.
//
// References never go through the transformation pipeline or the VM:
// bulk uses native C++ (std::sort, a hand-written CSR spmv) and the
// reference interpreter; the serving workloads use the reference
// interpreter, run during set-up outside any timed window.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "interp/value.hpp"

namespace perfbench {

using proteus::interp::Value;
using proteus::interp::ValueList;

/// The Section 6 programs (quicksort, sparse matrix-vector product,
/// quickhull), as in examples/{quicksort,spmv,quickhull}.cpp.
extern const char* const kQuicksort;
extern const char* const kSpmv;
extern const char* const kQuickhull;

/// A sparse matrix both as the P value seq(seq((int, real))) (1-based
/// columns) and in CSR form for the native reference.
struct SparseMatrix {
  Value boxed;
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int64_t> col;  // 0-based
  std::vector<double> val;
};

Value random_ints(Rng& rng, int n, std::int64_t lo, std::int64_t hi);
/// Reals of the form k/1000, so their P literal text is exact.
Value random_reals(Rng& rng, int n);
/// Rows with 2^k nonzeros, k uniform in [0, max_log2] (the skewed case).
SparseMatrix random_matrix(Rng& rng, int rows, int cols, int max_log2);
Value random_points(Rng& rng, int n, std::int64_t range);

/// P literal text of a value (the daemon receives arguments as text).
std::string literal(const Value& v);

/// Compares two rendered results: structure and integers exactly, reals
/// within a relative 2e-5 (results are rendered to 6 significant digits).
bool same_text(const std::string& expected, const std::string& got);

/// The reference interpreter: parse, check, interpret (no xform, no VM).
Value reference_eval(const std::string& source, const std::string& fun,
                     const ValueList& args);

/// One evaluation request: program, function, arguments, reference.
struct Call {
  std::string family;  ///< "qsort", "spmv", "qhull" or an example name
  std::shared_ptr<const std::string> source;
  std::string fun;
  ValueList args;
  std::vector<std::string> arg_texts;
  std::string expected;  ///< reference-interpreter result text
};

/// The serve-warm pool: about `count` small evals of the Section 6
/// programs and examples/programs/*.p under `repo_dir`, inputs from n=1
/// up to a few hundred elements. Family shares and input sizes are the
/// same for every seed; the seed picks element values and the order.
std::vector<Call> warm_pool(Rng& rng, const std::string& repo_dir, int count);

/// The serve-cold generator: every request is a source the daemon has
/// never seen — a template with its functions renamed by a unique suffix
/// and one of a few literal variants, evaluated on a small input. The
/// reference depends only on (template, variant, input) and is computed
/// once per combination in the constructor.
class ColdGenerator {
 public:
  explicit ColdGenerator(Rng& rng);
  /// Fills `call` with request `serial` (unique per generator instance
  /// when `tag` differs between clients); cheap, no interpretation.
  void make(Rng& rng, const std::string& tag, std::uint64_t serial,
            Call* call) const;

 private:
  struct Input {
    ValueList args;
    std::vector<std::string> arg_texts;
  };
  struct Template {
    std::string family;
    std::string text;  ///< '@S' marks the rename suffix, '@K' the literal
    std::string fun;
    std::vector<std::string> variants;
    std::vector<Input> inputs;
    std::vector<std::vector<std::string>> expected;  ///< [variant][input]
    int weight = 1;
  };
  static std::string instantiate(const Template& t, const std::string& suffix,
                                 const std::string& variant);
  std::vector<Template> templates_;
  int total_weight_ = 0;
};

}  // namespace perfbench
