// common.hpp — shared pieces of the perfbench harness: clocks, order
// statistics, the result record every workload fills in, the harness's
// own span recorder, and the host fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Rng = std::mt19937_64;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; sorts a copy.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports: the metrics of its mode, the correctness
/// tally, and human-readable notes (reference rows, fingerprint, ...).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one checked output; a failure marks the whole run incorrect.
  void check(bool ok, const std::string& what);
};

/// The harness's own span recorder: spans sit in the benchmark's files
/// around calls into each module's public functions, so the program
/// under test runs unmodified (no obs::Tracer is installed). A null
/// recorder makes every Span a no-op: that is the untraced pass.
class Trace {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  };

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  /// Sum of the durations of every span called `name`, in microseconds.
  [[nodiscard]] double total_us(const std::string& name) const;
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  /// Writes the spans as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Span {
 public:
  Span(Trace* trace, const char* name)
      : trace_(trace), index_(trace != nullptr ? trace->open(name) : -1) {}
  ~Span() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  std::int32_t index_;
};

/// One-line JSON host fingerprint: cores, cache sizes from /sys, build
/// type, compiler, vl backend and its thread count.
std::string host_fingerprint();

/// VmHWM (peak resident set) of process `pid` ("self" for this one), MB.
double peak_rss_mb(const std::string& pid);

/// Shortest round-trip decimal rendering of a double.
std::string number_text(double v);

}  // namespace perfbench
